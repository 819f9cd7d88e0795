package flow

import (
	"time"

	"slim/internal/obs"
)

// Metrics publishes one governor's accounting through internal/obs. The
// process-wide totals (submitted, released, owed, repayment bytes, pacing
// delay) share unlabeled instruments across
// sessions; the instantaneous per-session state (queue depth and bytes,
// granted bps, grant utilization) is labeled by session so /debug shows
// each session's governor live. A nil *Metrics is inert.
type Metrics struct {
	submitted   *obs.Counter
	releasedN   *obs.Counter
	releasedB   *obs.Counter
	owed        *obs.Counter
	retransB    *obs.Counter
	pacingDelay *obs.Histogram

	depth *obs.Gauge
	bytes *obs.Gauge
	grant *obs.Gauge
	util  *obs.Gauge
}

// NewMetrics resolves the flow instrument family: the shared totals in r,
// the per-session gauges through session, whose owner evicts them with
// session.Remove when the session ends. The registry's clock domain is the
// caller's choice: wall transports use the telemetry kit's registry,
// virtual-time simulations obs.Sim — pacing delays then carry that
// domain's time.
func NewMetrics(r *obs.Registry, session *obs.Labeled) *Metrics {
	return &Metrics{
		submitted:   r.Counter("slim_flow_submitted_total"),
		releasedN:   r.Counter("slim_flow_released_total"),
		releasedB:   r.Counter("slim_flow_released_bytes_total"),
		owed:        r.Counter("slim_flow_owed_total"),
		retransB:    r.Counter("slim_flow_retransmit_bytes_total"),
		pacingDelay: r.Histogram("slim_flow_pacing_delay_seconds"),
		depth:       session.Gauge("slim_flow_queue_depth"),
		bytes:       session.Gauge("slim_flow_queue_bytes"),
		grant:       session.Gauge("slim_flow_grant_bps"),
		util:        session.Gauge("slim_flow_grant_utilization"),
	}
}

func (m *Metrics) submittedInc() {
	if m != nil {
		m.submitted.Inc()
	}
}

// released counts a command handed to the transport, paced or passed
// through.
func (m *Metrics) released(bytes int64, retransmit bool) {
	if m == nil {
		return
	}
	m.releasedN.Inc()
	m.releasedB.Add(bytes)
	if retransmit {
		m.retransB.Add(bytes)
	}
}

func (m *Metrics) pacingDelayed(delay time.Duration) {
	if m != nil {
		m.pacingDelay.Observe(delay)
	}
}

func (m *Metrics) owedInc() {
	if m != nil {
		m.owed.Inc()
	}
}

func (m *Metrics) queue(depth, bytes int) {
	if m == nil {
		return
	}
	m.depth.Set(int64(depth))
	m.bytes.Set(int64(bytes))
}

func (m *Metrics) grantBps(bps int64) {
	if m != nil {
		m.grant.Set(bps)
	}
}

// utilization publishes the percentage of the grant the session actually
// used over the elapsed accounting window.
func (m *Metrics) utilization(bytes int64, rate uint64, elapsed time.Duration) {
	if m == nil || rate == 0 || elapsed <= 0 {
		return
	}
	granted := float64(rate) / 8 * elapsed.Seconds()
	m.util.Set(int64(float64(bytes) / granted * 100))
}
