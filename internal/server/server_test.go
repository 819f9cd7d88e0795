package server

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// memTransport collects datagrams per console and can replay them into
// console frame buffers.
type memTransport struct {
	sent map[string][][]byte
}

func newMemTransport() *memTransport {
	return &memTransport{sent: make(map[string][][]byte)}
}

func (m *memTransport) Send(console string, wire []byte) error {
	m.sent[console] = append(m.sent[console], append([]byte(nil), wire...))
	return nil
}

// renderTo applies every display datagram sent to a console onto a frame
// buffer.
func (m *memTransport) renderTo(t *testing.T, console string, screen *fb.Framebuffer) {
	t.Helper()
	for _, wire := range m.sent[console] {
		_, msg, _, err := protocol.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type().IsDisplay() {
			if err := screen.Apply(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// msgsTo decodes everything sent to a console.
func (m *memTransport) msgsTo(t *testing.T, console string) []protocol.Message {
	t.Helper()
	var out []protocol.Message
	for _, wire := range m.sent[console] {
		_, msg, _, err := protocol.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, msg)
	}
	return out
}

func newTestServer(tr Transport, opts ...Option) *Server {
	s := New(tr, func(user string, w, h int) Application { return NewTerminal(w, h) }, opts...)
	s.Auth.Register("card-alice", "alice")
	s.Auth.Register("card-bob", "bob")
	return s
}

func hello(w, h int, card string) *protocol.Hello {
	return &protocol.Hello{Width: uint16(w), Height: uint16(h), CardToken: card}
}

func TestAuthManager(t *testing.T) {
	a := NewAuthManager()
	a.Register("tok", "u")
	user, err := a.Authenticate("tok")
	if err != nil || user != "u" {
		t.Errorf("auth = %q, %v", user, err)
	}
	if _, err := a.Authenticate("nope"); !errors.Is(err, ErrBadToken) {
		t.Errorf("bad token error = %v", err)
	}
	a.Revoke("tok")
	if _, err := a.Authenticate("tok"); err == nil {
		t.Error("revoked token accepted")
	}
}

func TestHelloCreatesSessionWithCard(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if sess == nil || sess.Console != "c1" {
		t.Fatal("session not created/attached")
	}
	// Console receives attach + repaint + hello ack.
	var sawAttach, sawAck bool
	for _, msg := range tr.msgsTo(t, "c1") {
		switch m := msg.(type) {
		case *protocol.SessionAttach:
			if m.SessionID == sess.ID {
				sawAttach = true
			}
		case *protocol.HelloAck:
			if m.SessionID == sess.ID {
				sawAck = true
			}
		}
	}
	if !sawAttach || !sawAck {
		t.Errorf("attach=%v ack=%v", sawAttach, sawAck)
	}
}

func TestHelloWithoutCardShowsLogin(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, ""), 0); err != nil {
		t.Fatal(err)
	}
	if s.SessionOf("c1") != nil {
		t.Error("session created without a card")
	}

	// A console that reboots with no card in it shows the login screen:
	// the session it showed keeps running but must stop painting there.
	const w, h = 64, 48
	tr = newMemTransport()
	s = New(tr, func(string, int, int) Application { return tickingTerminal{NewTerminal(w, h)} })
	s.Auth.Register("card-alice", "alice")
	if err := s.Handle("c1", hello(w, h, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c1", hello(w, h, ""), 0); err != nil {
		t.Fatal(err)
	}
	tr.sent["c1"] = nil
	if err := s.Tick(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.sent["c1"]); n != 0 {
		t.Errorf("a tick after a card-less Hello sent %d datagrams to the login screen", n)
	}
	sess := s.SessionByUser("alice")
	if sess.Console != "" {
		t.Errorf("alice's session still bound to %q", sess.Console)
	}
	if err := s.Handle("c1", hello(w, h, "card-alice"), 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	screen := fb.New(w, h)
	tr.renderTo(t, "c1", screen)
	if sess.Console != "c1" || !screen.Equal(sess.Encoder.FB) {
		t.Errorf("reinserting the card did not repaint alice's screen (console %q)", sess.Console)
	}
}

// tickingTerminal is a Terminal that also repaints a corner on every Tick.
type tickingTerminal struct{ *Terminal }

func (tickingTerminal) Tick(now time.Duration) []core.Op {
	return []core.Op{core.FillOp{Rect: protocol.Rect{W: 8, H: 8}, Color: protocol.Pixel(now)}}
}

func TestBadCardRejected(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-evil"), 0); !errors.Is(err, ErrBadToken) {
		t.Errorf("bad card error = %v", err)
	}
}

func TestInputDrivesApplication(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c1", &protocol.KeyEvent{Code: 'x', Down: true}, 0); err != nil {
		t.Fatal(err)
	}
	// The echo terminal must have emitted a BITMAP for the glyph.
	var sawGlyph bool
	for _, msg := range tr.msgsTo(t, "c1") {
		if msg.Type() == protocol.TypeBitmap {
			sawGlyph = true
		}
	}
	if !sawGlyph {
		t.Error("keystroke produced no display update")
	}
}

func TestInputWithoutSessionFails(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, ""), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c1", &protocol.KeyEvent{Code: 'x', Down: true}, 0); !errors.Is(err, ErrNoSession) {
		t.Errorf("error = %v", err)
	}
	if err := s.Handle("ghost", &protocol.KeyEvent{}, 0); !errors.Is(err, ErrUnknownConsole) {
		t.Errorf("ghost console error = %v", err)
	}
}

func TestMobilityRestoresExactScreen(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, ""), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c2", hello(320, 200, ""), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c1", &protocol.SessionConnect{Token: "card-alice"}, 0); err != nil {
		t.Fatal(err)
	}
	for _, ch := range "hello" {
		if err := s.Handle("c1", &protocol.KeyEvent{Code: uint16(ch), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
	}
	screen1 := fb.New(320, 200)
	tr.renderTo(t, "c1", screen1)

	// Move to c2.
	if err := s.Handle("c2", &protocol.SessionConnect{Token: "card-alice"}, 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if sess.Console != "c2" {
		t.Fatal("session did not move")
	}
	screen2 := fb.New(320, 200)
	tr.renderTo(t, "c2", screen2)
	if !screen2.Equal(screen1) {
		t.Error("screen not restored bit-for-bit after mobility")
	}
	// Old console got a detach.
	var sawDetach bool
	for _, msg := range tr.msgsTo(t, "c1") {
		if d, ok := msg.(*protocol.SessionDetach); ok && d.SessionID == sess.ID {
			sawDetach = true
		}
	}
	if !sawDetach {
		t.Error("old console never detached")
	}
	if s.SessionOf("c1") != nil {
		t.Error("old console still owns the session")
	}
}

func TestDetach(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Detach("alice"); err != nil {
		t.Fatal(err)
	}
	if s.SessionOf("c1") != nil {
		t.Error("console still attached")
	}
	if s.SessionByUser("alice") == nil {
		t.Error("session destroyed by detach")
	}
	if err := s.Detach("alice"); err != nil {
		t.Error("double detach errored")
	}
	if err := s.Detach("nobody"); err == nil {
		t.Error("detach of unknown user succeeded")
	}
}

func TestSessionSurvivesDetachedInput(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Detach("alice"); err != nil {
		t.Fatal(err)
	}
	// Application keeps rendering into the session frame buffer even with
	// no console attached (e.g. a long-running job updating the screen).
	sess := s.SessionByUser("alice")
	term := sess.App.(*Terminal)
	for _, op := range term.TypeString("offline") {
		if _, err := sess.Encoder.Encode(op); err != nil {
			t.Fatal(err)
		}
	}
	// Reattach elsewhere: repaint must carry the offline output.
	if err := s.Handle("c2", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	screen := fb.New(320, 200)
	tr.renderTo(t, "c2", screen)
	if !screen.Equal(sess.Encoder.FB) {
		t.Error("reattach did not restore offline rendering")
	}
}

func TestNackTriggersRecovery(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	before := len(tr.sent["c1"])
	if err := s.Handle("c1", &protocol.Nack{From: 1, To: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if len(tr.sent["c1"]) <= before {
		t.Error("nack produced no retransmission")
	}
}

// TestNackRangeValidated: a NACK is outside input, and the range it names
// is checked before the encoder or the governor sees it. A backwards range,
// or one reaching past the last sequence number issued — which no console
// can have missed, and which used to be answered with a full-screen repaint
// for 28 bytes — is dropped and counted; a range inside what was issued is
// answered.
func TestNackRangeValidated(t *testing.T) {
	for _, governed := range []bool{false, true} {
		tr := newMemTransport()
		kit := telemetry.New(obs.DomainWall)
		opts := []Option{WithTelemetry(kit)}
		if governed {
			opts = append(opts, WithFlowControl(flow.Config{InitialBps: 1_000_000}))
		}
		s := newTestServer(tr, opts...)
		if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
			t.Fatal(err)
		}
		for _, key := range "abc" {
			if err := s.Handle("c1", &protocol.KeyEvent{Code: uint16(key), Down: true}, 0); err != nil {
				t.Fatal(err)
			}
		}
		sess := s.SessionByUser("alice")
		rejected := int64(0)
		for _, c := range []struct {
			name     string
			rng      func(last uint32) (from, to uint32)
			answered bool
		}{
			{"first command", func(uint32) (uint32, uint32) { return 1, 1 }, true},
			{"up to the last issued", func(last uint32) (uint32, uint32) { return last - 1, last }, true},
			{"backwards", func(uint32) (uint32, uint32) { return 2, 1 }, false},
			{"one past the last issued", func(last uint32) (uint32, uint32) { return last + 1, last + 1 }, false},
			{"starts inside, ends past", func(last uint32) (uint32, uint32) { return 1, last + 1 }, false},
			{"whole sequence space", func(uint32) (uint32, uint32) { return 0, 0xffffffff }, false},
			{"far future", func(uint32) (uint32, uint32) { return 1 << 30, 1 << 30 }, false},
		} {
			before, last := len(tr.sent["c1"]), sess.Encoder.LastSeq()
			from, to := c.rng(last)
			if err := s.Handle("c1", &protocol.Nack{From: from, To: to}, 0); err != nil {
				t.Fatalf("governed=%v %s: %v", governed, c.name, err)
			}
			if !c.answered {
				rejected++
			}
			sent, encoded := len(tr.sent["c1"])-before, sess.Encoder.LastSeq()-last
			if c.answered != (sent > 0) || c.answered != (encoded > 0) {
				t.Errorf("governed=%v %s: nack %d..%d of %d issued drew %d datagrams (%d commands encoded), answered should be %v",
					governed, c.name, from, to, last, sent, encoded, c.answered)
			}
			if got := kit.Registry.Snapshot().Counters["slim_nacks_rejected_total"]; got != rejected {
				t.Errorf("governed=%v %s: slim_nacks_rejected_total = %d, want %d", governed, c.name, got, rejected)
			}
		}
	}
}

func TestEvictionOnSharedConsole(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	// Bob badges into the same console: Alice's session is evicted but
	// preserved.
	if err := s.Handle("c1", &protocol.SessionConnect{Token: "card-bob"}, 0); err != nil {
		t.Fatal(err)
	}
	if got := s.SessionOf("c1"); got == nil || got.User != "bob" {
		t.Fatalf("console owner = %+v", got)
	}
	alice := s.SessionByUser("alice")
	if alice == nil || alice.Console != "" {
		t.Errorf("alice session = %+v", alice)
	}
}

func TestServerStatusIgnoredWithoutSession(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(32, 32, ""), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c1", &protocol.Status{LastSeq: 1}, 0); err != nil {
		t.Errorf("status errored: %v", err)
	}
	if err := s.Handle("c1", &protocol.HelloAck{}, 0); err == nil {
		t.Error("server accepted a server→console message")
	}
	if err := s.Handle("ghost", &protocol.Status{}, 0); err == nil {
		t.Error("status from unknown console accepted")
	}
}

// TestStatusVerdictOnAQuietLine: a STATUS is judged only on a quiet line —
// nothing sent for a heartbeat, nothing owed or queued. There a grown drop
// counter owes the screen once, and a LastSeq of 0 (a rebooted console
// holds nothing of the session, not even which one it shows) attaches the
// session again; either repaint restores the screen exactly. The
// same STATUS on a busy line owes nothing, and neither does a second
// verdict before the line is quiet again.
func TestStatusVerdictOnAQuietLine(t *testing.T) {
	for _, c := range []struct {
		name    string
		dropped uint32 // the console's drop counter; 0 means it rebooted
	}{{"drop", 3}, {"reboot", 0}} {
		t.Run(c.name, func(t *testing.T) {
			tr := newMemTransport()
			s := newTestServer(tr)
			if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
				t.Fatal(err)
			}
			for _, k := range "status" {
				if err := s.Handle("c1", &protocol.KeyEvent{Code: uint16(k), Down: true}, 0); err != nil {
					t.Fatal(err)
				}
			}
			sess := s.SessionByUser("alice")
			status := func(now time.Duration, lastSeq uint32) [][]byte {
				t.Helper()
				before := len(tr.sent["c1"])
				if err := s.Handle("c1", &protocol.Status{LastSeq: lastSeq, Dropped: c.dropped}, now); err != nil {
					t.Fatal(err)
				}
				return tr.sent["c1"][before:]
			}
			verdict := sess.Encoder.LastSeq() // up to date but for the drops
			if c.dropped == 0 {
				verdict = 0
			}
			if sent := status(heartbeat-time.Millisecond, verdict); len(sent) != 0 {
				t.Errorf("the verdict on a busy line drew %d datagrams", len(sent))
			}
			repaint := status(heartbeat, verdict)
			if len(repaint) == 0 {
				t.Fatal("the verdict on a quiet line drew no repaint")
			}
			screen, attached := fb.New(64, 64), false
			for _, wire := range repaint {
				_, msg, _, err := protocol.Decode(wire)
				if err != nil {
					t.Fatal(err)
				}
				if !msg.Type().IsDisplay() {
					attached = attached || msg.Type() == protocol.TypeSessionAttach
					continue
				}
				if err := screen.Apply(msg); err != nil {
					t.Fatal(err)
				}
			}
			if attached != (c.dropped == 0) {
				t.Errorf("the verdict sent a SessionAttach: %v; want one for a reboot alone", attached)
			}
			if !screen.Equal(sess.Encoder.FB) {
				t.Error("the recovery repaint does not restore the screen")
			}
			// A reboot verdict while the repaint is in flight.
			if sent := status(heartbeat+time.Millisecond, 0); len(sent) != 0 {
				t.Errorf("a second verdict before the line was quiet again drew %d datagrams", len(sent))
			}
			if sent := status(2*heartbeat, sess.Encoder.LastSeq()); len(sent) != 0 {
				t.Errorf("the healed console's heartbeat drew %d datagrams", len(sent))
			}
		})
	}
}

// Compile-time check: Terminal satisfies Application.
var _ Application = (*Terminal)(nil)

// Guard against accidental interface drift in core.Op usage.
var _ core.Op = core.FillOp{}

// burstLog is a BurstSender that logs how each datagram reached it.
type burstLog struct{ calls []string }

func (b *burstLog) Send(console string, _ []byte) error {
	b.calls = append(b.calls, console+":send")
	return nil
}

func (b *burstLog) SendBurst(console string, wires [][]byte) error {
	b.calls = append(b.calls, fmt.Sprintf("%s:burst%d", console, len(wires)))
	return nil
}

// TestFlushGroupsRunsPerConsole: consecutive datagrams for one console
// reach a BurstSender as one burst, in order; a run of one, and everything
// on a plain Transport, goes through Send. The burst path allocates
// nothing per flush.
func TestFlushGroupsRunsPerConsole(t *testing.T) {
	out := func() []outbound {
		return []outbound{{console: "a", wire: []byte{1}}, {console: "a", wire: []byte{2}},
			{console: "b", wire: []byte{3}}, {console: "a", wire: []byte{4}}}
	}
	tr := &burstLog{}
	if err := newTestServer(tr).flush(out()); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(tr.calls, " "), "a:burst2 b:send a:send"; got != want {
		t.Errorf("burst transport saw %q, want %q", got, want)
	}
	plain := newMemTransport()
	if err := newTestServer(plain).flush(out()); err != nil {
		t.Fatal(err)
	}
	if len(plain.sent["a"]) != 3 || len(plain.sent["b"]) != 1 {
		t.Errorf("plain transport got %d+%d datagrams, want 3+1", len(plain.sent["a"]), len(plain.sent["b"]))
	}

	if raceflag.Enabled {
		return // the race detector empties sync.Pools at random
	}
	s, run := newTestServer(discardBursts{}), make([]outbound, 97)
	for i := range run {
		run[i] = outbound{console: "a", wire: []byte{byte(i)}}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.flush(run) }); allocs != 0 {
		t.Errorf("flush of a 97-command burst: %v allocs, want 0", allocs)
	}
}

type discardBursts struct{ discard }

func (discardBursts) SendBurst(string, [][]byte) error { return nil }
