package server

import (
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// newFlowServer builds a governed server over tr with a hermetic registry
// and recorder, granting sessions bps once attached.
func newFlowServer(t *testing.T, tr Transport, cfg flow.Config) (*Server, *obs.Registry) {
	t.Helper()
	kit := telemetry.New(obs.DomainWall)
	s := New(tr, func(user string, w, h int) Application { return NewTerminal(w, h) },
		WithTelemetry(kit), WithFlowControl(cfg))
	s.Auth.Register("card-alice", "alice")
	return s, kit.Registry
}

func TestFlowSessionRequestsBandwidth(t *testing.T) {
	tr := newMemTransport()
	s, _ := newFlowServer(t, tr, flow.Config{InitialBps: 1_000_000})
	if !s.FlowEnabled() {
		t.Fatal("FlowEnabled = false with WithFlowControl")
	}
	if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if sess.Governor() == nil {
		t.Fatal("governed server created session without governor")
	}
	var req *protocol.BandwidthRequest
	for _, msg := range tr.msgsTo(t, "c1") {
		if m, ok := msg.(*protocol.BandwidthRequest); ok {
			req = m
		}
	}
	if req == nil {
		t.Fatal("attach did not announce bandwidth demand to the console")
	}
	if req.SessionID != sess.ID || req.Bps != 1_000_000 {
		t.Errorf("request = %+v", req)
	}
}

// TestFlowGrantPacesTraffic grants a tiny rate, floods input-driven
// damage, and checks queued commands release only as virtual time passes.
func TestFlowGrantPacesTraffic(t *testing.T) {
	tr := newMemTransport()
	s, _ := newFlowServer(t, tr, flow.Config{
		InitialBps: 1_000_000,
		BurstBytes: 9000, // covers the 64x64 attach repaint, little more
	})
	if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	// 8 kbit/s: roughly one keystroke echo's worth of bytes per second.
	if err := s.Handle("c1", &protocol.BandwidthGrant{SessionID: sess.ID, Bps: 8_000}, 0); err != nil {
		t.Fatal(err)
	}
	// The first grant fills the burst bucket; drain it with the repaint
	// already queued plus a couple of keystrokes, then flood.
	for i := 0; i < 400; i++ {
		if err := s.Handle("c1", &protocol.KeyEvent{Code: uint16('a' + i%26), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
	}
	gov := sess.Governor()
	if gov.QueueDepth() == 0 {
		t.Fatal("flooded governed session has an empty queue")
	}
	sentAt0 := len(tr.sent["c1"])
	if _, _, err := s.PumpFlows(0); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.sent["c1"]); got != sentAt0 {
		t.Errorf("pump at t=0 released %d datagrams with an empty bucket", got-sentAt0)
	}
	next, pending, err := s.PumpFlows(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.sent["c1"]); got == sentAt0 {
		t.Error("pump after 10s released nothing")
	}
	if pending && next <= 10*time.Second {
		t.Errorf("next release %v not in the future", next)
	}
}

// TestFlowNackBudget drives repeated NACKs and checks the deferred ones
// regenerate through PumpFlows once the backoff expires.
func TestFlowNackBudget(t *testing.T) {
	tr := newMemTransport()
	s, _ := newFlowServer(t, tr, flow.Config{
		InitialBps:        1_000_000,
		BurstBytes:        1 << 16,
		RetransmitShare:   0.25,
		RetransmitBackoff: 20 * time.Millisecond,
	})
	if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if err := s.Handle("c1", &protocol.BandwidthGrant{SessionID: sess.ID, Bps: 1 << 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c1", &protocol.KeyEvent{Code: 'x', Down: true}, 0); err != nil {
		t.Fatal(err)
	}
	last := sess.Encoder.LastSeq()
	// First NACK retransmits immediately (budget full, no backoff).
	sent0 := len(tr.sent["c1"])
	if err := s.Handle("c1", &protocol.Nack{From: last, To: last}, 0); err != nil {
		t.Fatal(err)
	}
	if len(tr.sent["c1"]) == sent0 {
		t.Fatal("first nack produced no retransmit")
	}
	// A storm of immediate repeats escalates the backoff and defers.
	deferred := false
	for i := 0; i < 20 && !deferred; i++ {
		now := time.Duration(i) * time.Millisecond
		before := len(tr.sent["c1"])
		if err := s.Handle("c1", &protocol.Nack{From: last, To: last}, now); err != nil {
			t.Fatal(err)
		}
		deferred = len(tr.sent["c1"]) == before
	}
	if !deferred {
		t.Fatal("nack storm never deferred a retransmit")
	}
	// The deferred range regenerates once its backoff expires.
	before := len(tr.sent["c1"])
	if _, _, err := s.PumpFlows(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(tr.sent["c1"]) == before {
		t.Error("deferred retransmit never regenerated")
	}
}

// fillApp answers each key press with one fill, its rect chosen by the key.
type fillApp map[uint16]protocol.Rect

func (a fillApp) HandleKey(ev protocol.KeyEvent) []core.Op {
	r, ok := a[ev.Code]
	if !ok || !ev.Down {
		return nil
	}
	return []core.Op{core.FillOp{Rect: r, Color: protocol.Pixel(ev.Code)}}
}

func (fillApp) HandlePointer(protocol.PointerEvent) []core.Op { return nil }

// TestSupersededNackSuppressed drives supersession and the NACKs that
// follow it through a Session. Two queued fills are shed by a third that
// covers them; the governor reports them, the session tells the encoder,
// and the encoder's sent log is then the one place that knows. A NACK over
// just the shed pair costs nothing — no repaint, no retry budget, no
// backoff step — and is counted; a NACK whose range also holds a command
// that did leave repaints that command's rect and no other.
func TestSupersededNackSuppressed(t *testing.T) {
	rects := fillApp{
		'a': {X: 4, Y: 4, W: 8, H: 8},
		'b': {X: 16, Y: 4, W: 8, H: 8},
		'c': {X: 0, Y: 0, W: 32, H: 32}, // covers a and b
		'd': {X: 40, Y: 40, W: 8, H: 8},
	}
	tr := newMemTransport()
	kit := telemetry.New(obs.DomainWall)
	// A one-byte bucket at one byte a second: the first command after the
	// grant leaves (a full bucket never stalls an oversized command), every
	// later one queues, and any queue depth arms supersession.
	s := New(tr, func(string, int, int) Application { return rects }, WithTelemetry(kit),
		WithFlowControl(flow.Config{InitialBps: 1_000_000, BurstBytes: 1, SupersedeThresholdBytes: 1}))
	s.Auth.Register("card-alice", "alice")
	if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if err := s.Handle("c1", &protocol.BandwidthGrant{SessionID: sess.ID, Bps: 8}, 0); err != nil {
		t.Fatal(err)
	}
	press := func(key uint16) uint32 {
		t.Helper()
		if err := s.Handle("c1", &protocol.KeyEvent{Code: key, Down: true}, 0); err != nil {
			t.Fatal(err)
		}
		return sess.Encoder.LastSeq()
	}
	d := press('d') // leaves on the full bucket
	a, b := press('a'), press('b')
	press('c')
	if depth := sess.Governor().QueueDepth(); depth != 1 {
		t.Fatalf("queue holds %d commands after the cover, want the cover alone", depth)
	}
	count := func(name string) int64 { return kit.Registry.Snapshot().Counters[name] }
	const (
		suppressed = "slim_flow_retransmits_suppressed_total"
		answered   = "slim_flow_retransmits_total"
		deferred   = "slim_flow_retransmits_deferred_total"
		spent      = "slim_flow_retransmit_bytes_total"
	)

	sent, last := len(tr.sent["c1"]), sess.Encoder.LastSeq()
	if err := s.Handle("c1", &protocol.Nack{From: a, To: b}, 0); err != nil {
		t.Fatal(err)
	}
	if sess.Encoder.LastSeq() != last || len(tr.sent["c1"]) != sent || sess.Governor().QueueDepth() != 1 {
		t.Error("nack over a fully superseded range produced a repaint")
	}
	if count(suppressed) != 1 || count(answered) != 0 || count(deferred) != 0 || count(spent) != 0 {
		t.Errorf("after the superseded nack: suppressed %d, answered %d, deferred %d, retry bytes %d; want 1, 0, 0, 0",
			count(suppressed), count(answered), count(deferred), count(spent))
	}

	// d did leave. The range d..b is answered at once — the suppressed NACK
	// took no backoff step — with d's rect and nothing of a's or b's.
	if err := s.Handle("c1", &protocol.Nack{From: d, To: b}, 0); err != nil {
		t.Fatal(err)
	}
	if count(answered) != 1 || count(deferred) != 0 || count(spent) == 0 || count(suppressed) != 1 {
		t.Errorf("after the mixed nack: answered %d, deferred %d, retry bytes %d, suppressed %d; want 1, 0, >0, 1",
			count(answered), count(deferred), count(spent), count(suppressed))
	}
	for now := time.Hour; sess.Governor().QueueDepth() > 0; now += time.Hour {
		if _, _, err := s.PumpFlows(now); err != nil { // one oversized command per refill
			t.Fatal(err)
		}
	}
	var painted []protocol.Rect
	for _, msg := range tr.msgsTo(t, "c1")[sent:] {
		if msg.Type().IsDisplay() {
			painted = append(painted, core.WriteRect(msg))
		}
	}
	if len(painted) != 2 || painted[0] != rects['c'] || painted[1] != rects['d'] {
		t.Errorf("after the nacks the console was sent %v, want the cover then d's repaint", painted)
	}
}

// TestFlowTerminateUnregisters checks the labeled flow gauges leave the
// registry with the session.
func TestFlowTerminateUnregisters(t *testing.T) {
	tr := newMemTransport()
	s, reg := newFlowServer(t, tr, flow.Config{InitialBps: 1_000_000})
	if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	name := `slim_flow_queue_depth{session="alice"}`
	if _, ok := reg.Snapshot().Gauges[name]; !ok {
		t.Fatalf("governed session did not publish %s", name)
	}
	if err := s.Terminate("alice"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Snapshot().Gauges[name]; ok {
		t.Errorf("%s survived Terminate", name)
	}
}
