// Package netqual estimates per-session network path quality — smoothed
// RTT and RTT variance, one-way jitter, loss rate, and delivered goodput —
// entirely passively, from traffic the SLIM protocol already exchanges.
// No new wire messages: RTT samples come from STATUS acknowledgements and
// the §7 bandwidth-grant round trip, jitter from STATUS inter-arrival
// deltas, loss from sequence-gap/NACK accounting, and goodput from
// paced-bytes-versus-acked-bytes over 5 s and 1 m windows.
//
// The paper's grant loop paces on console-announced bandwidth alone; the
// X-Files result (PAPERS.md) is what happens to thin clients when nobody
// measures the path. This package is the measurement substrate for the
// WAN transport tier (ROADMAP item 3): the pacer, FEC/ARQ tuning, and
// breach attribution all read these estimators.
//
// Discipline matches internal/obs/slo:
//
//   - The disabled observe path is one atomic load, zero allocations.
//   - The enabled observe path is atomics and fixed arrays only — no
//     locks, no maps, no allocation (pinned by TestZeroAlloc*).
//   - Observe methods stamp from the tracker's obs.Clock — the timeline
//     the flight recorder and SLO tracker share, so breach-time path
//     evidence needs no translation — and are single-writer per session:
//     the owning server calls them under its session lock. A harness that
//     replays recorded or simulated traffic sets a sim-domain clock before
//     each call. Reads (debug handler, flight recorder, broker rollup) are
//     lock-free atomic loads.
//
// Sessions are keyed by fleet-unique session ID, so one process-wide
// tracker shared across broker shards keeps estimator state alive across
// a live migration: the destination shard resolves the same PathSession
// and calls Rebase, which clears in-flight sample state (tx ring, grant
// probe, jitter arrival chain) without touching the smoothed estimates or
// loss windows — a hotdesk redirect moves the session, not the path
// history.
package netqual

import (
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
)

const (
	// ringSize is the per-session tx ring: seq → (send time, bytes). It
	// bounds how far an ack walk can look back; a power of two so the
	// index is a mask, sized to cover several bandwidth-delay products of
	// datagrams at WAN RTTs.
	ringSize = 512
	ringMask = ringSize - 1
)

const (
	// ShortWindow is the fast loss/goodput window: what the pacer and the
	// breach-time PathEvidence read.
	ShortWindow = 5 * time.Second
	// LongWindow is the slow window: steady-state loss for capacity
	// decisions and the accuracy sweep.
	LongWindow = time.Minute
)

// txSlot records one sent datagram for ack matching.
type txSlot struct {
	seq     uint32
	retrans bool
	lost    bool // NACKed: the ack walk must not credit its bytes
	sendNs  int64
	bytes   int32
}

// Tracker owns per-session path estimators on one clock. The zero value
// is not usable; call New. Estimation is off until SetEnabled — the
// disabled observe path costs one atomic load.
type Tracker struct {
	clock   *obs.Clock
	enabled atomic.Bool

	sessions obs.Sessions[PathSession]

	mu  sync.RWMutex
	reg *obs.Registry

	// Fleet-wide counters (resolved by Instrument; nil-safe before).
	cSamples    *obs.Counter // slim_netqual_rtt_samples_total
	cNacks      *obs.Counter // slim_netqual_nacks_total
	cLost       *obs.Counter // slim_netqual_lost_packets_total
	cAckedBytes *obs.Counter // slim_netqual_acked_bytes_total
}

// New returns a tracker that stamps and reads its windows on clock
// (estimation disabled).
func New(clock *obs.Clock) *Tracker {
	return &Tracker{clock: clock}
}

// Instrument resolves the tracker's fleet counters in reg and makes reg
// the home for per-session labeled gauges. Returns t for chaining.
func (t *Tracker) Instrument(reg *obs.Registry) *Tracker {
	if reg.Domain() != t.clock.Domain() {
		panic("netqual: registry clock domain does not match tracker domain")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg = reg
	t.cSamples = reg.Counter("slim_netqual_rtt_samples_total")
	t.cNacks = reg.Counter("slim_netqual_nacks_total")
	t.cLost = reg.Counter("slim_netqual_lost_packets_total")
	t.cAckedBytes = reg.Counter("slim_netqual_acked_bytes_total")
	return t
}

// SetEnabled arms or disarms every session's observe path.
func (t *Tracker) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether estimation is armed.
func (t *Tracker) Enabled() bool { return t.enabled.Load() }

// Session returns the path estimator for a session, creating (and, when
// instrumented, registering its labeled gauges) on first use. Session IDs
// are fleet-unique, so a migrated session resolves to the same estimator
// on its destination shard.
func (t *Tracker) Session(id uint32, user string) *PathSession {
	return t.sessions.Get(id, func() *PathSession {
		s := &PathSession{t: t, id: id, user: user}
		s.short.Init(ShortWindow)
		s.long.Init(LongWindow)
		t.mu.RLock()
		reg := t.reg
		t.mu.RUnlock()
		if reg != nil {
			s.series = reg.Labeled("session", user)
			s.gSRTT = s.series.Gauge("slim_netqual_srtt_ns")
			s.gJitter = s.series.Gauge("slim_netqual_jitter_ns")
			s.gLoss = s.series.Gauge("slim_netqual_loss_permille")
			s.gGoodput = s.series.Gauge("slim_netqual_goodput_bps")
		}
		return s
	})
}

// Remove evicts a session's estimator and its labeled gauges — the
// cardinality-eviction contract shared with the SLO tracker and the
// per-session input-to-paint histograms. Call from Terminate paths.
func (t *Tracker) Remove(id uint32) {
	if s := t.sessions.Remove(id); s != nil && s.series != nil {
		s.series.Remove()
	}
}

// SessionIDs returns the tracked session IDs, sorted (tests, eviction
// checks).
func (t *Tracker) SessionIDs() []uint32 { return t.sessions.IDs() }

// Lookup returns a session's estimator without creating it (nil when the
// session is untracked). Evidence taps — breach-dump stamping, broker
// rollups — use it so reads never instantiate estimator state for
// sessions nothing observed.
func (t *Tracker) Lookup(id uint32) *PathSession { return t.sessions.Lookup(id) }

// PathSession estimates one session's path. Observe methods (OnSend,
// OnStatus, OnNack, OnProbe, OnGrant, Rebase) are single-writer — the
// owning server's session lock serializes them; read methods are safe
// from any goroutine. All methods are nil-safe.
type PathSession struct {
	t    *Tracker
	id   uint32
	user string

	// Smoothed estimators, nanoseconds (RFC 6298 EWMAs; RFC 3550-style
	// jitter). Atomics so readers skip the session lock.
	srttNs   atomic.Int64
	rttvarNs atomic.Int64
	minRttNs atomic.Int64
	jitterNs atomic.Int64
	samples  atomic.Int64

	sentPkts  atomic.Int64
	sentBytes atomic.Int64

	// Single-writer sample state.
	ring      [ringSize]txSlot
	ackedSeq  uint32 // highest console-acknowledged display sequence
	nackHi    uint32 // highest sequence already counted lost via NACK
	dropped   uint32 // last console-announced cumulative drop count
	probeNs   int64  // in-flight grant-probe send time (0: none)
	lastArrNs int64  // previous STATUS arrival
	prevGapNs int64  // previous STATUS inter-arrival gap
	haveGap   bool

	// short and long count (acked, lost, acked bytes) per slot.
	short, long obs.Window

	// Per-session labeled gauges (nil when the tracker is uninstrumented);
	// series owns them and Remove evicts through it.
	series                          *obs.Labeled
	gSRTT, gJitter, gLoss, gGoodput *obs.Gauge
}

// Armed reports whether observe calls will record anything. This is the
// entire disabled hot path: nil check plus one atomic load.
func (s *PathSession) Armed() bool {
	return s != nil && s.t.enabled.Load()
}

// OnSend records a paced datagram leaving the server: seq → send time for
// ack matching, bytes for goodput. Retransmissions poison their slot
// (Karn's algorithm: a retransmitted sequence never yields an RTT sample,
// because the ack is ambiguous between transmissions).
func (s *PathSession) OnSend(seq uint32, bytes int, retrans bool) {
	if !s.Armed() {
		return
	}
	sl := &s.ring[seq&ringMask]
	if retrans && sl.seq == seq {
		sl.retrans = true
	} else {
		sl.seq, sl.sendNs, sl.bytes, sl.retrans = seq, int64(s.t.clock.Now()), int32(bytes), retrans
	}
	s.sentPkts.Add(1)
	s.sentBytes.Add(int64(bytes))
}

// OnStatus ingests a console STATUS heartbeat: RTT sample from the ack of
// the newest applied sequence, jitter from the inter-arrival delta chain,
// loss from the console's cumulative drop counter, and acked bytes for
// goodput. Stale or reordered STATUS messages (LastSeq at or below the
// ack watermark) contribute jitter only — the ack walk never runs
// backward.
func (s *PathSession) OnStatus(lastSeq, dropped uint32) {
	if !s.Armed() {
		return
	}
	t := s.t
	nowNs := int64(t.clock.Now())
	adv := int32(lastSeq - s.ackedSeq)

	// One-way jitter from inter-arrival deltas (RFC 3550 shape, applied
	// to arrival gaps since STATUS carries no sender timestamp):
	// J += (|gap_i - gap_{i-1}| - J) / 16. Only non-advancing STATUS
	// messages — the console's fixed-cadence idle heartbeats — feed the
	// chain: event-driven acks arrive at the display traffic's rhythm,
	// which would measure the workload, not the path.
	if adv <= 0 {
		if s.lastArrNs != 0 {
			gap := nowNs - s.lastArrNs
			if s.haveGap {
				d := gap - s.prevGapNs
				if d < 0 {
					d = -d
				}
				j := s.jitterNs.Load()
				j += (d - j) / 16
				s.jitterNs.Store(j)
				s.gJitter.Set(j)
			}
			s.prevGapNs = gap
			s.haveGap = true
		}
		s.lastArrNs = nowNs
	}

	// Console-announced drops are losses the console saw directly.
	if delta := int32(dropped - s.dropped); delta > 0 {
		s.lose(nowNs, int64(delta))
		s.dropped = dropped
	}

	// Ack advance: every sequence at or below LastSeq has left the path.
	if adv > 0 {
		n := int64(adv)
		walk := n
		if walk > ringSize {
			walk = ringSize
		}
		var acked int64
		for q := lastSeq - uint32(walk) + 1; ; q++ {
			if sl := &s.ring[q&ringMask]; sl.seq == q && !sl.lost {
				acked += int64(sl.bytes)
			}
			if q == lastSeq {
				break
			}
		}
		if n > walk {
			// Sequences evicted from the ring: charge the mean datagram
			// size so goodput degrades gracefully instead of to zero.
			if pkts := s.sentPkts.Load(); pkts > 0 {
				acked += (n - walk) * (s.sentBytes.Load() / pkts)
			}
		}
		s.short.Add(nowNs, n, 0, acked)
		s.long.Add(nowNs, n, 0, acked)
		t.cAckedBytes.Add(acked)

		// RTT sample from the newest acked sequence, Karn-filtered.
		if sl := &s.ring[lastSeq&ringMask]; sl.seq == lastSeq && !sl.retrans && !sl.lost {
			s.sampleRTT(nowNs - sl.sendNs)
		}
		s.ackedSeq = lastSeq
	}
	s.publishRates(nowNs)
}

// OnNack ingests a console NACK for the inclusive sequence range
// [from, to]. A watermark deduplicates: sequences already counted lost —
// including an identical duplicate NACK — are not counted again.
func (s *PathSession) OnNack(from, to uint32) {
	if !s.Armed() {
		return
	}
	nowNs := int64(s.t.clock.Now())
	s.t.cNacks.Inc()
	lo := from
	if int32(lo-1-s.nackHi) < 0 {
		lo = s.nackHi + 1
	}
	if int32(to-lo) >= 0 {
		n := int64(to - lo + 1)
		s.lose(nowNs, n)
		s.nackHi = to
		// Mark the lost sequences in the tx ring so the ack walk skips
		// their bytes (goodput counts delivered bytes only) and a later
		// stale ack never samples an RTT from them.
		walk := n
		if walk > ringSize {
			walk = ringSize
		}
		for q := to - uint32(walk) + 1; ; q++ {
			if sl := &s.ring[q&ringMask]; sl.seq == q {
				sl.lost = true
			}
			if q == to {
				break
			}
		}
	}
	s.publishRates(nowNs)
}

// OnProbe marks a bandwidth-grant round trip leaving the server (the
// BandwidthRequest the server sends at attach). The matching OnGrant
// closes the loop with an RTT sample — the only RTT source a session has
// before its first STATUS.
func (s *PathSession) OnProbe() {
	if !s.Armed() {
		return
	}
	s.probeNs = int64(s.t.clock.Now())
}

// OnGrant closes an open grant probe into an RTT sample.
func (s *PathSession) OnGrant() {
	if !s.Armed() {
		return
	}
	if s.probeNs != 0 {
		s.sampleRTT(int64(s.t.clock.Now()) - s.probeNs)
		s.probeNs = 0
	}
}

// Rebase clears in-flight sample state after a migration cutover or
// console move: the tx ring, the grant probe, and the jitter arrival
// chain all reference the pre-cutover path, so sampling across the seam
// would pollute the estimators. The smoothed SRTT/jitter values, the ack
// and NACK watermarks, and the loss/goodput windows survive — a hotdesk
// redirect must not look like a loss spike.
func (s *PathSession) Rebase() {
	if s == nil {
		return
	}
	for i := range s.ring {
		s.ring[i] = txSlot{}
	}
	s.probeNs = 0
	s.lastArrNs = 0
	s.prevGapNs = 0
	s.haveGap = false
}

// lose charges n lost packets to both windows and the fleet counter.
func (s *PathSession) lose(nowNs, n int64) {
	s.short.Add(nowNs, 0, n, 0)
	s.long.Add(nowNs, 0, n, 0)
	s.t.cLost.Add(n)
}

// sampleRTT folds one round-trip sample into the RFC 6298 EWMAs:
// RTTVAR += (|sample-SRTT| - RTTVAR)/4, SRTT += (sample-SRTT)/8.
func (s *PathSession) sampleRTT(ns int64) {
	if ns <= 0 {
		return
	}
	s.samples.Add(1)
	s.t.cSamples.Inc()
	srtt := s.srttNs.Load()
	if srtt == 0 {
		s.srttNs.Store(ns)
		s.rttvarNs.Store(ns / 2)
		s.minRttNs.Store(ns)
	} else {
		d := ns - srtt
		if d < 0 {
			d = -d
		}
		rv := s.rttvarNs.Load()
		rv += (d - rv) / 4
		s.rttvarNs.Store(rv)
		srtt += (ns - srtt) / 8
		s.srttNs.Store(srtt)
		if mn := s.minRttNs.Load(); ns < mn {
			s.minRttNs.Store(ns)
		}
	}
	s.gSRTT.Set(s.srttNs.Load())
}

// publishRates refreshes the short-window loss and goodput gauges.
func (s *PathSession) publishRates(nowNs int64) {
	if s.gLoss == nil && s.gGoodput == nil {
		return
	}
	acked, lost, ackedBytes := s.short.Totals(nowNs)
	s.gLoss.Set(permille(lost, acked))
	s.gGoodput.Set(ackedBytes * 8 * int64(time.Second) / int64(s.short.Span()))
}

// permille returns ⌊1000*num/den⌋ clamped to [0, 1000], 0 when den is 0.
func permille(num, den int64) int64 {
	if den <= 0 {
		return 0
	}
	p := 1000 * num / den
	if p > 1000 {
		p = 1000
	}
	return p
}

// SRTT returns the smoothed round-trip estimate (0 before any sample).
func (s *PathSession) SRTT() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.srttNs.Load())
}

// RTTVar returns the smoothed round-trip variance.
func (s *PathSession) RTTVar() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.rttvarNs.Load())
}

// MinRTT returns the minimum round-trip sample seen (the propagation
// floor).
func (s *PathSession) MinRTT() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.minRttNs.Load())
}

// Jitter returns the smoothed inter-arrival jitter estimate.
func (s *PathSession) Jitter() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.jitterNs.Load())
}

// Samples returns how many RTT samples have been folded in.
func (s *PathSession) Samples() int64 {
	if s == nil {
		return 0
	}
	return s.samples.Load()
}

// Sent returns how many datagrams, and bytes, OnSend has been told of.
func (s *PathSession) Sent() (pkts, bytes int64) {
	if s == nil {
		return 0, 0
	}
	return s.sentPkts.Load(), s.sentBytes.Load()
}

// LossShortAt returns the short-window loss fraction as of now.
func (s *PathSession) LossShortAt(now time.Duration) float64 {
	if s == nil {
		return 0
	}
	acked, lost, _ := s.short.Totals(int64(now))
	return lossFrac(acked, lost)
}

// LossLongAt returns the long-window loss fraction as of now.
func (s *PathSession) LossLongAt(now time.Duration) float64 {
	if s == nil {
		return 0
	}
	acked, lost, _ := s.long.Totals(int64(now))
	return lossFrac(acked, lost)
}

// GoodputAt returns delivered (console-acknowledged) goodput in bits per
// second over the short window as of now.
func (s *PathSession) GoodputAt(now time.Duration) float64 {
	if s == nil {
		return 0
	}
	_, _, ackedBytes := s.short.Totals(int64(now))
	return float64(ackedBytes*8) * float64(time.Second) / float64(s.short.Span())
}

// lossFrac is lost/acked clamped to [0, 1]. The ack watermark advances
// past lost sequences too (the console reports the highest sequence it
// has seen), so acked counts every path-terminated sequence — delivered
// or declared lost and skipped past — and is the right denominator.
func lossFrac(acked, lost int64) float64 {
	if acked <= 0 {
		return 0
	}
	f := float64(lost) / float64(acked)
	if f > 1 {
		f = 1
	}
	return f
}
