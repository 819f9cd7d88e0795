package netqual

import (
	"time"

	"slim/internal/obs"
	"slim/internal/obs/flight"
)

// SessionStatus is one session's path estimate in a Status report.
type SessionStatus struct {
	ID         uint32  `json:"id"`
	User       string  `json:"user"`
	SRTTMs     float64 `json:"srtt_ms"`
	RTTVarMs   float64 `json:"rttvar_ms"`
	MinRTTMs   float64 `json:"min_rtt_ms"`
	JitterMs   float64 `json:"jitter_ms"`
	Samples    int64   `json:"rtt_samples"`
	LossShort  float64 `json:"loss_short"` // fraction over the short window
	LossLong   float64 `json:"loss_long"`  // fraction over the long window
	GoodputBps float64 `json:"goodput_bps"`
	SentPkts   int64   `json:"sent_pkts"`
	SentBytes  int64   `json:"sent_bytes"`
}

// Status is the tracker's full state for the /debug/netqual endpoint.
type Status struct {
	Enabled     bool            `json:"enabled"`
	Domain      obs.Domain      `json:"domain"`
	ShortWindow time.Duration   `json:"short_window_ns"`
	LongWindow  time.Duration   `json:"long_window_ns"`
	Sessions    []SessionStatus `json:"sessions"`
}

func (s *PathSession) statusAt(now time.Duration) SessionStatus {
	pkts, bytes := s.Sent()
	return SessionStatus{
		ID:         s.id,
		User:       s.user,
		SRTTMs:     ms(s.SRTT()),
		RTTVarMs:   ms(s.RTTVar()),
		MinRTTMs:   ms(s.MinRTT()),
		JitterMs:   ms(s.Jitter()),
		Samples:    s.Samples(),
		LossShort:  s.LossShortAt(now),
		LossLong:   s.LossLongAt(now),
		GoodputBps: s.GoodputAt(now),
		SentPkts:   pkts,
		SentBytes:  bytes,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Status snapshots every session as of the tracker's clock, sorted by
// session ID.
func (t *Tracker) Status() Status {
	now := t.clock.Now()
	ids := t.sessions.IDs()
	st := Status{
		Enabled:     t.enabled.Load(),
		Domain:      t.clock.Domain(),
		ShortWindow: ShortWindow,
		LongWindow:  LongWindow,
		Sessions:    make([]SessionStatus, 0, len(ids)),
	}
	for _, id := range ids {
		if s := t.sessions.Lookup(id); s != nil {
			st.Sessions = append(st.Sessions, s.statusAt(now))
		}
	}
	return st
}

// PathEvidence reports a session's measured path state as of asOf (on the
// tracker's clock) in the form the flight recorder stamps into breach
// dumps — wire it with Recorder.SetPathEvidence and WIRE verdicts gain a
// LINK sub-verdict (loss-driven vs latency-driven) backed by the RTT and
// loss the estimator saw at breach time. A session the tracker never
// observed — or a disarmed tracker — contributes no evidence rather than
// zeros.
func (t *Tracker) PathEvidence(id uint32, asOf time.Duration) *flight.PathEvidence {
	s := t.Lookup(id)
	if s == nil || !t.Enabled() {
		return nil
	}
	return &flight.PathEvidence{
		SRTTNs:     int64(s.SRTT()),
		RTTVarNs:   int64(s.RTTVar()),
		MinRTTNs:   int64(s.MinRTT()),
		JitterNs:   int64(s.Jitter()),
		Samples:    s.Samples(),
		LossShort:  s.LossShortAt(asOf),
		LossLong:   s.LossLongAt(asOf),
		GoodputBps: s.GoodputAt(asOf),
	}
}
