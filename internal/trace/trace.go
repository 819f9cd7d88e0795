// Package trace implements the instrumentation substrate of §3.1: time-
// stamped logs of every input event and display command in a session. The
// paper's methodology is to log everything once during user studies and
// answer later questions by post-processing; all of Figures 2–8 are
// post-processings of such traces, and so are ours.
package trace

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"slim/internal/netsim"
	"slim/internal/protocol"
	"slim/internal/stats"
)

// Kind classifies a trace record.
type Kind uint8

// Record kinds. Input events are keystrokes and mouse clicks — the paper's
// definition excludes bare mouse motion (§5.1).
const (
	KindKey Kind = iota + 1
	KindClick
	KindDisplay
)

// String returns the record kind name.
func (k Kind) String() string {
	switch k {
	case KindKey:
		return "key"
	case KindClick:
		return "click"
	case KindDisplay:
		return "display"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsInput reports whether the record is an input event.
func (k Kind) IsInput() bool { return k == KindKey || k == KindClick }

// Record is one logged protocol event.
type Record struct {
	// T is the time since session start.
	T time.Duration
	// Kind classifies the record.
	Kind Kind
	// Cmd is the display command type (display records only).
	Cmd protocol.MsgType
	// Bytes is the wire size of the message.
	Bytes int
	// Pixels is the number of display pixels affected (display records).
	Pixels int
}

// Trace is one user session's log.
type Trace struct {
	// App names the benchmark application (Table 2).
	App string
	// User identifies the study participant.
	User int
	// Duration is the session length.
	Duration time.Duration
	// Records holds the log in time order.
	Records []Record
}

// Append adds a record, keeping the trace duration current.
func (t *Trace) Append(r Record) {
	t.Records = append(t.Records, r)
	if r.T > t.Duration {
		t.Duration = r.T
	}
}

// rebase shifts the trace so that its first record is at time zero — what
// the converters from live evidence (FromFlight, FromCapture) do to
// timestamps taken on a running clock.
func (t *Trace) rebase() {
	if len(t.Records) == 0 {
		return
	}
	base := t.Records[0].T
	for i := range t.Records {
		t.Records[i].T -= base
	}
	t.Duration -= base
}

// InputTimes returns the timestamps of all input events.
func (t *Trace) InputTimes() []time.Duration {
	var out []time.Duration
	for _, r := range t.Records {
		if r.Kind.IsInput() {
			out = append(out, r.T)
		}
	}
	return out
}

// InputCount reports the number of input events.
func (t *Trace) InputCount() int {
	n := 0
	for _, r := range t.Records {
		if r.Kind.IsInput() {
			n++
		}
	}
	return n
}

// EventFrequencies computes the Figure 2 statistic: for each input event
// after the first, the instantaneous event frequency 1/Δt in events/sec.
func (t *Trace) EventFrequencies() []float64 {
	times := t.InputTimes()
	out := make([]float64, 0, len(times))
	for i := 1; i < len(times); i++ {
		dt := times[i] - times[i-1]
		if dt <= 0 {
			dt = time.Millisecond // coincident events: clamp to 1 kHz
		}
		out = append(out, float64(time.Second)/float64(dt))
	}
	return out
}

// PerEvent aggregates display activity between consecutive input events
// using the paper's heuristic (§5.2): all pixel changes between two input
// events are attributed to the first event.
type PerEvent struct {
	Pixels int
	Bytes  int
}

// PerEventTotals returns one PerEvent per input event.
func (t *Trace) PerEventTotals() []PerEvent {
	var out []PerEvent
	open := false
	var cur PerEvent
	for _, r := range t.Records {
		switch {
		case r.Kind.IsInput():
			if open {
				out = append(out, cur)
			}
			cur = PerEvent{}
			open = true
		case r.Kind == KindDisplay && open:
			cur.Pixels += r.Pixels
			cur.Bytes += r.Bytes
		}
	}
	if open {
		out = append(out, cur)
	}
	return out
}

// PixelsPerEvent returns the Figure 3 sample: pixels changed per input event.
func (t *Trace) PixelsPerEvent() *stats.CDF {
	c := stats.NewCDF(t.InputCount())
	for _, pe := range t.PerEventTotals() {
		c.Add(float64(pe.Pixels))
	}
	return c
}

// BytesPerEvent returns the Figure 5 sample: SLIM bytes per input event.
func (t *Trace) BytesPerEvent() *stats.CDF {
	c := stats.NewCDF(t.InputCount())
	for _, pe := range t.PerEventTotals() {
		c.Add(float64(pe.Bytes))
	}
	return c
}

// DisplayBytes sums the wire bytes of all display records.
func (t *Trace) DisplayBytes() int64 {
	var n int64
	for _, r := range t.Records {
		if r.Kind == KindDisplay {
			n += int64(r.Bytes)
		}
	}
	return n
}

// AvgBandwidthBps reports the session's average display bandwidth in bits
// per second (Figure 8's metric).
func (t *Trace) AvgBandwidthBps() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.DisplayBytes()*8) / t.Duration.Seconds()
}

// Packets converts the display records to netsim packets for replay over
// simulated fabrics (the Figure 6 methodology), tagging them with flow.
func (t *Trace) Packets(flow int) []netsim.Packet {
	var out []netsim.Packet
	for _, r := range t.Records {
		if r.Kind == KindDisplay {
			out = append(out, netsim.Packet{T: r.T, Size: r.Bytes, Flow: flow})
		}
	}
	return out
}

// CommandBytes aggregates display bytes and pixels per command type
// (Figure 4's decomposition).
func (t *Trace) CommandBytes() map[protocol.MsgType]PerEvent {
	out := make(map[protocol.MsgType]PerEvent)
	for _, r := range t.Records {
		if r.Kind == KindDisplay {
			pe := out[r.Cmd]
			pe.Bytes += r.Bytes
			pe.Pixels += r.Pixels
			out[r.Cmd] = pe
		}
	}
	return out
}

// Merge concatenates several traces' samples for population-level CDFs.
// The paper pools all 50 users' sessions per application.
func Merge(traces []*Trace) *Trace {
	if len(traces) == 0 {
		return &Trace{}
	}
	merged := &Trace{App: traces[0].App}
	var offset time.Duration
	for _, tr := range traces {
		for _, r := range tr.Records {
			shifted := r
			shifted.T += offset
			merged.Append(shifted)
		}
		offset += tr.Duration
	}
	return merged
}

// WriteBinary serializes the trace in a compact binary form (gob).
func (t *Trace) WriteBinary(w io.Writer) error {
	return gob.NewEncoder(w).Encode(t)
}

// ReadBinary deserializes a binary trace.
func ReadBinary(r io.Reader) (*Trace, error) {
	var t Trace
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &t, nil
}

// WriteJSON serializes the trace as JSON for external tooling.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// ReadJSON deserializes a JSON trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode json: %w", err)
	}
	return &t, nil
}
