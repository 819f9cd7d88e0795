package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"slim/internal/core"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer's public functions; nothing inside the program is
// instrumented. The traced pass is synchronous and single-goroutine, so
// the recorder needs no locking and a span's parent is simply whatever
// span was open when it began.
type spanKind uint8

const (
	// spanHandle is one call into the server side's Handle (a single
	// server, or the broker fronting the fleet) for a key-down or key-up.
	spanHandle spanKind = iota
	// spanPump is one PumpFlows call releasing paced traffic an input left
	// in its session's flow governor.
	spanPump
	// spanAppRender is the wrapped application answering a key-down.
	spanAppRender
	// spanFabricSend is one Transport.Send: the fabric delivering a
	// datagram to its console (decode and paint included) and feeding any
	// console replies back.
	spanFabricSend
)

var spanNames = [...]string{
	spanHandle:     "server.handle",
	spanPump:       "server.pump",
	spanAppRender:  "app.render",
	spanFabricSend: "fabric.send",
}

// setupEvent tags spans and captures that belong to no input: attach,
// the first repaint, idle pumps.
const setupEvent = -1

// span is one timed call. start and end are nanoseconds since the
// recorder began; parent indexes the enclosing span (-1 for a root);
// event is the input it served.
type span struct {
	kind       spanKind
	parent     int32
	event      int32
	start, end int64
}

// capturedOps is what the application rendered for one input.
type capturedOps struct {
	event, session int32
	ops            []core.Op
}

// capturedWire locates one server→console datagram in the arena.
type capturedWire struct {
	event, console int32
	off, n         int
}

// recorder holds one traced pass in memory: its spans, and every op and
// datagram the pass produced, so Pass B can replay them into fresh
// objects one layer at a time.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32

	// event and session identify the input being driven; spans outside any
	// input (idle pumps) carry setupEvent. cursor is the latest input
	// started, which is what captured datagrams are filed under, so the
	// capture stays in event order. capturing gates the op and datagram
	// capture (spans are always recorded).
	event     int32
	session   int32
	cursor    int32
	capturing bool

	consoles map[string]int32
	ops      []capturedOps
	wires    []capturedWire
	arena    []byte
}

func newRecorder() *recorder {
	return &recorder{
		t0:        time.Now(),
		event:     setupEvent,
		cursor:    setupEvent,
		capturing: true,
		consoles:  make(map[string]int32),
		spans:     make([]span, 0, 1<<16),
		arena:     make([]byte, 0, 1<<20),
	}
}

func (r *recorder) addConsole(id string) { r.consoles[id] = int32(len(r.consoles)) }

func (r *recorder) begin(k spanKind) int32 {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	idx := int32(len(r.spans))
	r.spans = append(r.spans, span{kind: k, parent: parent, event: r.event})
	r.open = append(r.open, idx)
	r.spans[idx].start = int64(time.Since(r.t0))
	return idx
}

func (r *recorder) end(idx int32) {
	r.spans[idx].end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

func (r *recorder) captureOps(ops []core.Op) {
	if !r.capturing {
		return
	}
	r.ops = append(r.ops, capturedOps{event: r.event, session: r.session, ops: ops})
}

func (r *recorder) captureWire(console string, wire []byte) {
	if !r.capturing {
		return
	}
	off := len(r.arena)
	r.arena = append(r.arena, wire...)
	r.wires = append(r.wires, capturedWire{event: r.cursor, console: r.consoles[console], off: off, n: len(wire)})
}

func (r *recorder) wire(c capturedWire) []byte { return r.arena[c.off : c.off+c.n] }

// eventCost is the span arithmetic for one input: handle is the time in
// its root spans (the Handle calls for key-down and key-up, plus any pump
// that released its paced datagrams), app and send the time in their
// app.render and top-level fabric.send children, and self what is left —
// a layer's self time is its span's duration minus the part its child
// spans cover.
type eventCost struct {
	handle, app, send, self int64
	sends                   int
}

// costs folds the spans of events [first, last) into per-event costs and
// checks the nesting the arithmetic relies on: every child lies inside
// its parent and siblings do not overlap, so handle = app + self + send
// holds exactly.
func (r *recorder) costs(first, last int) ([]eventCost, error) {
	out := make([]eventCost, last-first)
	lastEnd := make([]int64, len(r.spans)) // parent → end of its latest child
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.end < sp.start {
			return nil, fmt.Errorf("trace: span %d (%s) ends before it starts", i, spanNames[sp.kind])
		}
		if sp.parent >= 0 {
			p := &r.spans[sp.parent]
			if sp.start < p.start || sp.end > p.end {
				return nil, fmt.Errorf("trace: span %d (%s) escapes its parent %s", i, spanNames[sp.kind], spanNames[p.kind])
			}
			if sp.start < lastEnd[sp.parent] {
				return nil, fmt.Errorf("trace: span %d (%s) overlaps a sibling", i, spanNames[sp.kind])
			}
			lastEnd[sp.parent] = sp.end
		}
		ev := int(sp.event)
		if ev < first || ev >= last {
			continue
		}
		c := &out[ev-first]
		d := sp.end - sp.start
		switch {
		case sp.parent < 0:
			c.handle += d
			c.self += d
		case r.spans[sp.parent].parent < 0:
			// A direct child of a root: covered time leaves self.
			c.self -= d
			if sp.kind == spanAppRender {
				c.app += d
			} else {
				c.send += d
				c.sends++
			}
		}
	}
	for i, c := range out {
		if c.handle != c.app+c.self+c.send || c.self < 0 {
			return nil, fmt.Errorf("trace: event %d: handle %d != app %d + self %d + send %d", first+i, c.handle, c.app, c.self, c.send)
		}
	}
	return out, nil
}

// traceFileEvents bounds the span file: a pass records every event for
// the aggregate metrics, the file keeps the spans of the last few.
const traceFileEvents = 2000

type jsonSpan struct {
	ID      int32  `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int32  `json:"parent"`
	Event   int32  `json:"event"`
}

// writeTrace writes the spans of the last traceFileEvents of the events
// [first, last) to dir/trace_<workload>.json: name, start, end, parent,
// event id.
func (r *recorder) writeTrace(dir, workload string, first, last int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	from := int32(max(first, last-traceFileEvents))
	doc := struct {
		Workload string     `json:"workload"`
		Clock    string     `json:"clock"`
		Events   int        `json:"events_recorded"`
		Spans    []jsonSpan `json:"spans"`
	}{Workload: workload, Clock: "nanoseconds since the traced pass began", Events: last - first}
	for i, sp := range r.spans {
		if sp.event < from || sp.event >= int32(last) {
			continue
		}
		doc.Spans = append(doc.Spans, jsonSpan{
			ID: int32(i), Name: spanNames[sp.kind],
			StartNs: sp.start, EndNs: sp.end, Parent: sp.parent, Event: sp.event,
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), append(data, '\n'), 0o644)
}
