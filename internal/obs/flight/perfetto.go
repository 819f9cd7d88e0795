package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"slim/internal/obs"
)

// Perfetto (Chrome trace-event JSON) export. Each session renders as one
// process; pipeline stages (input, encode, transport, console, link) are
// threads within it, so the Perfetto timeline shows a command descending
// through the stack. Flow arrows connect each input event to the paints
// it caused, via the input-chain IDs.
//
// The format reference is the Chrome Trace Event Format document; Perfetto
// (ui.perfetto.dev) loads these files directly.

// perfettoEvent is one trace-event JSON object.
type perfettoEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  uint32         `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level JSON object.
type perfettoFile struct {
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	TraceEvents     []perfettoEvent `json:"traceEvents"`
}

// Pipeline lanes (Perfetto thread IDs) in display order.
const (
	laneInput = iota + 1
	laneEncode
	laneTransport
	laneConsole
	laneLink
	laneBreach
)

func lane(k Kind) int {
	switch k {
	case EvInput:
		return laneInput
	case EvOp, EvEncode:
		return laneEncode
	case EvTx, EvRx, EvDrop, EvTxQueue, EvSupersede:
		return laneTransport
	case EvDecode, EvPaint, EvStatus, EvNack:
		return laneConsole
	case EvLinkTx:
		return laneLink
	case EvBreach:
		return laneBreach
	}
	return laneBreach
}

var laneNames = map[int]string{
	laneInput:     "input",
	laneEncode:    "encode",
	laneTransport: "transport",
	laneConsole:   "console",
	laneLink:      "link",
	laneBreach:    "breach",
}

// eventName renders a human-readable slice name.
func eventName(ev Event) string {
	if ev.Cmd != 0 && ev.Kind != EvInput {
		return ev.Kind.String() + " " + ev.Cmd.String()
	}
	if ev.Kind == EvInput {
		return "INPUT " + ev.Cmd.String()
	}
	return ev.Kind.String()
}

// appendSession renders one session's events into out.
func appendSession(out []perfettoEvent, session uint32, evs []Event) []perfettoEvent {
	out = append(out, perfettoEvent{
		Name: "process_name", Ph: "M", PID: session, TID: 0,
		Args: map[string]any{"name": fmt.Sprintf("session %d", session)},
	})
	for tid := laneInput; tid <= laneBreach; tid++ {
		out = append(out, perfettoEvent{
			Name: "thread_name", Ph: "M", PID: session, TID: tid,
			Args: map[string]any{"name": laneNames[tid]},
		})
	}
	// Track which input chains saw a paint, to emit flow arrows.
	paintTS := make(map[uint64]float64)
	for _, ev := range evs {
		ts := float64(ev.T.Nanoseconds()) / 1e3
		pe := perfettoEvent{
			Name: eventName(ev),
			Cat:  ev.Kind.String(),
			Ph:   "X",
			TS:   ts,
			Dur:  1, // instantaneous pipeline marks; 1 µs keeps them clickable
			PID:  session,
			TID:  lane(ev.Kind),
			Args: map[string]any{"seq": ev.Seq, "cause": ev.Cause, "a": ev.A, "b": ev.B},
		}
		if ev.Kind == EvDecode && ev.A > 0 {
			pe.Dur = float64(ev.A) / 1e3 // modelled decode time
		}
		out = append(out, pe)
		switch ev.Kind {
		case EvInput:
			out = append(out, perfettoEvent{
				Name: "input-chain", Ph: "s", TS: ts, PID: session,
				TID: laneInput, ID: strconv.FormatUint(ev.Cause, 10),
			})
		case EvPaint:
			if ev.Cause != 0 {
				paintTS[ev.Cause] = ts
			}
		}
	}
	for cause, ts := range paintTS {
		out = append(out, perfettoEvent{
			Name: "input-chain", Ph: "f", BP: "e", TS: ts, PID: session,
			TID: laneConsole, ID: strconv.FormatUint(cause, 10),
		})
	}
	return out
}

// WritePerfetto renders one session's event slice as a Perfetto
// trace-event JSON file.
func WritePerfetto(w io.Writer, session uint32, evs []Event) error {
	f := perfettoFile{
		DisplayTimeUnit: "ms",
		TraceEvents:     appendSession(nil, session, evs),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// perfetto renders recent events — one session, or all of them when id is
// 0 and the recorder tracks several — as a trace-event document.
func (r *Recorder) perfetto(id uint32, last time.Duration) perfettoFile {
	var out []perfettoEvent
	ids := []uint32{id}
	if id == 0 {
		ids = r.SessionIDs()
	}
	for _, sid := range ids {
		if evs := r.Events(sid, last); len(evs) > 0 {
			out = appendSession(out, sid, evs)
		}
	}
	return perfettoFile{DisplayTimeUnit: "ms", TraceEvents: out}
}

// TraceHandler serves the recorder over HTTP — mounted at /debug/trace on
// the slimd debug endpoint:
//
//	GET /debug/trace                  all sessions, default window
//	GET /debug/trace?session=3        one session
//	GET /debug/trace?last=5s          bound the lookback window
//
// The response is Chrome/Perfetto trace-event JSON; load it at
// ui.perfetto.dev or chrome://tracing. A malformed parameter answers 400.
func (r *Recorder) TraceHandler() http.Handler {
	return obs.JSONHandler(func(req *http.Request) (any, error) {
		var id uint64
		last := DefaultWindow
		var err error
		if s := req.URL.Query().Get("session"); s != "" {
			if id, err = strconv.ParseUint(s, 10, 32); err != nil {
				return nil, obs.StatusError{Code: http.StatusBadRequest, Msg: "bad session: " + err.Error()}
			}
		}
		if s := req.URL.Query().Get("last"); s != "" {
			if last, err = time.ParseDuration(s); err != nil {
				return nil, obs.StatusError{Code: http.StatusBadRequest, Msg: "bad last: " + err.Error()}
			}
		}
		return r.perfetto(uint32(id), last), nil
	})
}
