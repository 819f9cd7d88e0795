package obs

// TraceEvent is one Chrome trace-event JSON object, the format Perfetto
// (ui.perfetto.dev) and chrome://tracing load. It is declared once: the
// flight recorder renders session lanes into it, the wire capture its
// datagram tracks, and /debug/trace and `slimtrace explain -perfetto`
// write both through TraceFile — so a dump and a capture of the same run
// share one document and, being stamped from one clock, one timebase.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	PID   uint32         `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// TraceFile is the top-level trace-event document; write it with
// WriteJSON.
type TraceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []TraceEvent `json:"traceEvents"`
}

// NewTraceFile wraps rendered events into a loadable document.
func NewTraceFile(evs []TraceEvent) TraceFile {
	return TraceFile{DisplayTimeUnit: "ms", TraceEvents: evs}
}
