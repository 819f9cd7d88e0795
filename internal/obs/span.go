package obs

import "time"

// Span is an input-to-paint latency span: it stamps an event at capture
// and, when finished, records the elapsed wall time into one or more
// histograms (typically the process-wide input-to-paint histogram plus the
// per-session one). The zero Span is inert, so call sites can stamp
// unconditionally and only arm the span for input events:
//
//	span := obs.StartSpan(global, perSession)
//	... encode → wire → decode → damage flush ...
//	span.End()
//
// Spans use the wall clock and therefore belong to DomainWall registries;
// simulator experiments account virtual time through netsim's own
// instruments instead.
type Span struct {
	start time.Time
	hists []*Histogram
}

// StartSpan stamps now as the capture time. Nil histograms are skipped at
// End, so callers may pass optional instruments unconditionally.
func StartSpan(hists ...*Histogram) Span {
	return Span{start: time.Now(), hists: hists}
}

// Attach adds another histogram to record into at End — used when the
// destination (say, a per-session histogram) is only known after the span
// began. Attaching to an inert span is a no-op.
func (s *Span) Attach(h *Histogram) {
	if s.start.IsZero() || h == nil {
		return
	}
	s.hists = append(s.hists, h)
}

// Elapsed reports the time since capture (zero for an inert span) without
// ending the span — the breach check reads it after End has published the
// histograms.
func (s Span) Elapsed() time.Duration {
	if s.start.IsZero() {
		return 0
	}
	return time.Since(s.start)
}

// End records the elapsed time since capture into every histogram. Inert
// (zero) spans do nothing.
func (s Span) End() {
	if s.start.IsZero() {
		return
	}
	elapsed := time.Since(s.start)
	for _, h := range s.hists {
		h.Observe(elapsed)
	}
}
