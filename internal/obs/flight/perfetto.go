package flight

import (
	"fmt"
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
	case EvTx, EvRx, EvDrop, EvOwe:
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
	if ev.Cmd != 0 || ev.Kind == EvInput {
		return ev.Kind.String() + " " + ev.Cmd.String()
	}
	return ev.Kind.String()
}

// TraceEvents renders one session's events (oldest first, as Events and
// dumps hold them) onto out: a process with one thread per lane, a slice
// per event, and a flow arrow from each INPUT to the last PAINT of its
// chain. The arrow's finish follows the paint it lands on, so the output
// is in timestamp order and the same events always render the same bytes.
func TraceEvents(out []obs.TraceEvent, session uint32, evs []Event) []obs.TraceEvent {
	out = append(out, obs.TraceEvent{
		Name: "process_name", Ph: "M", PID: session, TID: 0,
		Args: map[string]any{"name": fmt.Sprintf("session %d", session)},
	})
	for tid := laneInput; tid <= laneBreach; tid++ {
		out = append(out, obs.TraceEvent{
			Name: "thread_name", Ph: "M", PID: session, TID: tid,
			Args: map[string]any{"name": laneNames[tid]},
		})
	}
	lastPaint := make(map[uint64]int) // input chain -> index of its last PAINT
	for i, ev := range evs {
		if ev.Kind == EvPaint && ev.Cause != 0 {
			lastPaint[ev.Cause] = i
		}
	}
	for i, ev := range evs {
		ts := float64(ev.T.Nanoseconds()) / 1e3
		pe := obs.TraceEvent{
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
		switch {
		case ev.Kind == EvInput:
			out = append(out, obs.TraceEvent{
				Name: "input-chain", Ph: "s", TS: ts, PID: session,
				TID: laneInput, ID: strconv.FormatUint(ev.Cause, 10),
			})
		case ev.Kind == EvPaint && ev.Cause != 0 && lastPaint[ev.Cause] == i:
			out = append(out, obs.TraceEvent{
				Name: "input-chain", Ph: "f", BP: "e", TS: ts, PID: session,
				TID: laneConsole, ID: strconv.FormatUint(ev.Cause, 10),
			})
		}
	}
	return out
}

// trace renders recent events — one session, or all of them when id is 0
// and the recorder tracks several — as a trace-event document.
func (r *Recorder) trace(id uint32, last time.Duration) obs.TraceFile {
	var out []obs.TraceEvent
	ids := []uint32{id}
	if id == 0 {
		ids = r.SessionIDs()
	}
	for _, sid := range ids {
		if evs := r.Events(sid, last); len(evs) > 0 {
			out = TraceEvents(out, sid, evs)
		}
	}
	return obs.NewTraceFile(out)
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
		return r.trace(uint32(id), last), nil
	})
}
