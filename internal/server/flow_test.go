package server

import (
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// newFlowServer builds a server over tr whose governors cfg tunes, with a
// hermetic registry and recorder.
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
	if s.FlowPending() {
		t.Fatal("FlowPending = true before any session exists")
	}
	if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if sess.Governor() == nil {
		t.Fatal("the session has no governor")
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
// damage, and checks that what the grant could not take is owed and paid
// only as virtual time passes.
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
	// The blank attach left most of the burst in the bucket; the first
	// keystrokes spend it, the rest of the flood is owed.
	for i := 0; i < 400; i++ {
		if err := s.Handle("c1", &protocol.KeyEvent{Code: uint16('a' + i%26), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Owed("alice") == nil {
		t.Fatal("flooded governed session owes nothing")
	}
	if !s.FlowPending() {
		t.Error("FlowPending = false after a call left a debt behind")
	}
	sentAt0 := len(tr.sent["c1"])
	if _, _, err := s.PumpFlows(0); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.sent["c1"]); got != sentAt0 {
		t.Errorf("pump at t=0 sent %d datagrams with an empty bucket", got-sentAt0)
	}
	next, pending, err := s.PumpFlows(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.sent["c1"]); got == sentAt0 {
		t.Error("pump after 10s paid nothing")
	}
	if pending && next <= 10*time.Second {
		t.Errorf("next piece due at %v, not in the future", next)
	}
	if s.FlowPending() != pending {
		t.Errorf("FlowPending = %v after a pump that reported pending = %v", !pending, pending)
	}
	if drain(t, s, 10*time.Second, time.Minute); s.FlowPending() || s.Owed("alice") != nil {
		t.Errorf("FlowPending = %v, owed %v after the debt was paid", s.FlowPending(), s.Owed("alice"))
	}
}

// wireLog is a transport that keeps each datagram's type and size, not its
// bytes: a 1280×1024 repaint of noise is 4 MB.
type wireLog struct {
	types []protocol.MsgType
	sizes []int
}

func (l *wireLog) Send(_ string, wire []byte) error {
	l.types = append(l.types, protocol.MsgType(wire[3]))
	l.sizes = append(l.sizes, len(wire))
	return nil
}

// noiseScreen fills the session's frame buffer with pixels no analysis
// compresses, behind the encoder's back: the next repaint sends them all.
func noiseScreen(sess *Session) {
	x := uint32(19)
	for i := range sess.Encoder.FB.Pix {
		x = x*1664525 + 1013904223
		sess.Encoder.FB.Pix[i] = protocol.Pixel(x >> 8)
	}
}

// drain pumps the governors every step of transport time from now until
// nothing is owed, and returns the time of the last pump.
func drain(t *testing.T, s *Server, now, step time.Duration) time.Duration {
	t.Helper()
	for {
		if _, pending, err := s.PumpFlows(now); err != nil {
			t.Fatal(err)
		} else if !pending {
			return now
		}
		now += step
	}
}

// TestRecoveryStormOwesOneScreen: every finder of loss only adds to the one
// region the session owes, so a storm inside one round trip — eight
// overlapping NACKs, a NACK aged out of the sent log and a lagging STATUS,
// on a 1280×1024 gen-2 screen under a grant — costs what the NACKs named
// plus one screen of 5,120 tiles, and no more than a burst and a tile of it
// leaves before the clock moves. (With a repaint computed at each trigger it
// cost a screen for the STATUS, evicted as it was queued, and another for
// the aged-out NACK.)
func TestRecoveryStormOwesOneScreen(t *testing.T) {
	const w, h, tiles = 1280, 1024, (1280 / core.TileSize) * (1024 / core.TileSize)
	tr := &wireLog{}
	kit := telemetry.New(obs.DomainWall)
	s := newTestServer(tr, WithTelemetry(kit))
	gen2 := hello(w, h, "card-alice")
	gen2.Caps = protocol.CapCachePaint
	// The session starts on a blank screen, one FILL per tile row. Then
	// its screen is noise, and four attaches of it, 5,120 commands each,
	// push the first attach out of the 16,384-record sent log. Each is
	// paid at the demand it requests before the next.
	if err := s.Handle("c1", gen2, 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	first := sess.Encoder.LastSeq()
	noiseScreen(sess)
	now := time.Duration(0)
	for i := 0; i < 4; i++ {
		if err := s.Handle("c1", gen2, now); err != nil {
			t.Fatal(err)
		}
		now = drain(t, s, now, 10*time.Millisecond)
	}
	last := sess.Encoder.LastSeq()
	if last-first != 4*tiles {
		t.Fatalf("four attaches of noise encoded %d commands, want %d", last-first, 4*tiles)
	}
	storm := []protocol.Message{
		&protocol.BandwidthGrant{SessionID: sess.ID, Bps: 1_000_000},
		&protocol.Status{LastSeq: last}, // the attach is acknowledged: no epoch is open
	}
	for i := uint32(0); i < 8; i++ {
		storm = append(storm, &protocol.Nack{From: last - 40 + 2*i, To: last - 33 + 2*i})
	}
	storm = append(storm,
		&protocol.Nack{From: 1, To: 1},
		&protocol.Status{LastSeq: last - 612})
	before := len(tr.sizes)
	now += time.Second
	for _, msg := range storm {
		if err := s.Handle("c1", msg, now); err != nil {
			t.Fatal(err)
		}
	}
	sent := 0
	for i, n := range tr.sizes[before:] {
		if tr.types[before+i].IsDisplay() {
			sent += n
		}
	}
	if burst := sess.Governor().Config().BurstBytes; sent > burst+core.TileWire {
		t.Errorf("the storm sent %d bytes at once, more than a burst of %d and a tile", sent, burst)
	}
	drain(t, s, now, 100*time.Millisecond)
	if cost := sess.Encoder.LastSeq() - last; cost < tiles || cost > tiles+64 {
		t.Errorf("the storm cost %d commands, want one screen of %d and at most 64 more", cost, tiles)
	}
}

// TestFreshPaintPassesPacedRepaint: under a grant the debt is paid only in
// pieces the tokens cover, so the bucket is never in debt for long and a
// keystroke typed in the middle of a paced full repaint leaves behind at
// most one burst of recovery bytes, with most of the screen still owed.
// (Queued in one piece, the repaint put 256 KB ahead of the echo and lost
// the rest to eviction.)
func TestFreshPaintPassesPacedRepaint(t *testing.T) {
	tr := &wireLog{}
	s, _ := newFlowServer(t, tr, flow.Config{})
	if err := s.Handle("c1", hello(640, 480, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	noiseScreen(sess)
	if err := s.Handle("c1", &protocol.BandwidthGrant{SessionID: sess.ID, Bps: 1_000_000}, 0); err != nil {
		t.Fatal(err)
	}
	// The hotdesk keeps the grant: 900 KB of noise at 1 Mbit/s.
	if err := s.Handle("c2", hello(640, 480, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	now := time.Second
	if _, _, err := s.PumpFlows(now); err != nil {
		t.Fatal(err)
	}
	if s.Owed("alice") == nil {
		t.Fatal("nothing owed a second into the repaint; nothing is paced")
	}
	typed := len(tr.types)
	if err := s.Handle("c2", &protocol.KeyEvent{Code: 'x', Down: true}, now); err != nil {
		t.Fatal(err)
	}
	echo := func() int {
		for i, typ := range tr.types[typed:] {
			if typ == protocol.TypeBitmap {
				return typed + i
			}
		}
		return -1
	}
	for echo() < 0 {
		if now += 10 * time.Millisecond; now > time.Minute {
			t.Fatal("the echo never left")
		}
		if _, _, err := s.PumpFlows(now); err != nil {
			t.Fatal(err)
		}
	}
	ahead := 0
	for _, n := range tr.sizes[typed:echo()] {
		ahead += n
	}
	if burst := sess.Governor().Config().BurstBytes; ahead > burst {
		t.Errorf("the echo left behind %d bytes of repaint, more than one burst of %d", ahead, burst)
	}
	atEcho := sess.Encoder.LastSeq()
	drain(t, s, now, 100*time.Millisecond)
	if rest := sess.Encoder.LastSeq() - atEcho; rest < 300 {
		t.Errorf("only %d commands were encoded after the echo left; it did not pass the repaint", rest)
	}
}

// TestPacedVerdictOwesOneScreen: under a grant a STATUS verdict's repaint —
// 900 KB of noise at 1 Mbit/s — is paid over seconds, and every STATUS that
// arrives meanwhile finds the line busy, so the verdict costs one screen
// however the console's reports pile up. A drop reported on the busy line
// is judged at the next quiet one. A detach forgives what is left, and the
// next console is owed one screen, not one and the rest of the last.
func TestPacedVerdictOwesOneScreen(t *testing.T) {
	tr := &wireLog{}
	s, _ := newFlowServer(t, tr, flow.Config{})
	if err := s.Handle("c1", hello(640, 480, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	noiseScreen(sess)
	status := func(now time.Duration, lastSeq, dropped uint32) {
		t.Helper()
		if err := s.Handle(sess.Console, &protocol.Status{LastSeq: lastSeq, Dropped: dropped}, now); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Handle("c1", &protocol.BandwidthGrant{SessionID: sess.ID, Bps: 1_000_000}, 0); err != nil {
		t.Fatal(err)
	}
	acked := sess.Encoder.LastSeq()
	status(time.Second, acked, 1)
	if sess.Encoder.LastSeq() == acked {
		t.Fatal("a grown drop counter on a quiet line drew no repaint")
	}
	now := time.Second
	for pending := true; pending; now += 100 * time.Millisecond {
		status(now, 0, 2) // a reboot and another drop, reported while the repaint is paid
		_, pending, _ = s.PumpFlows(now)
	}
	screen := sess.Encoder.LastSeq() - acked
	now += heartbeat
	status(now, sess.Encoder.LastSeq(), 2)
	if sess.Encoder.LastSeq() == acked+screen {
		t.Fatal("the drop reported on a busy line was never judged")
	}
	if err := s.Detach("alice"); err != nil {
		t.Fatal(err)
	}
	left := sess.Encoder.LastSeq()
	if drain(t, s, now+time.Second, time.Second); sess.Encoder.LastSeq() != left {
		t.Errorf("%d commands encoded for a console that is gone", sess.Encoder.LastSeq()-left)
	}
	if err := s.Handle("c2", hello(640, 480, "card-alice"), now+2*time.Second); err != nil {
		t.Fatal(err)
	}
	drain(t, s, now+2*time.Second, 100*time.Millisecond)
	if got := sess.Encoder.LastSeq() - left; got != screen {
		t.Errorf("the next console's repaint cost %d commands, the verdict's %d; want one screen each", got, screen)
	}
}

// opApp answers each key press with the op bound to the key.
type opApp map[uint16]core.Op

func (a opApp) HandleKey(ev protocol.KeyEvent) []core.Op {
	op, ok := a[ev.Code]
	if !ok || !ev.Down {
		return nil
	}
	return []core.Op{op}
}

func (opApp) HandlePointer(protocol.PointerEvent) []core.Op { return nil }

// TestCopyOfOwedPixelsIsOwed: a debt paid late must not let the console
// copy the stale pixels somewhere the debt does not cover. A fill is lost
// on the wire; its NACK finds the bucket in debt, so the region waits; a
// COPY drawn meanwhile reads it. Sent, it would copy what the console has —
// not the fill — so it is owed instead: applied to the frame buffer, never
// encoded, its destination added to the debt, and the repaint that follows
// puts all of it right.
func TestCopyOfOwedPixelsIsOwed(t *testing.T) {
	from := protocol.Rect{X: 8, Y: 8, W: 16, H: 16}
	to := protocol.Rect{X: 40, Y: 40, W: 16, H: 16}
	app := opApp{
		'a': core.FillOp{Rect: from, Color: 0xa0a0a0},
		'x': core.FillOp{Rect: protocol.Rect{X: 0, Y: 48, W: 8, H: 8}, Color: 0x0b0b0b},
		'c': core.ScrollOp{Rect: from, DX: to.X - from.X, DY: to.Y - from.Y},
	}
	tr := newMemTransport()
	// A one-byte bucket: the attach is paid a tile at a time, and while
	// the clock stands the first command after the grant leaves and
	// overdraws it, every later one is owed.
	s := New(tr, func(string, int, int) Application { return app }, WithTelemetry(telemetry.New(obs.DomainWall)),
		WithFlowControl(flow.Config{InitialBps: 1_000_000, BurstBytes: 1}))
	s.Auth.Register("card-alice", "alice")
	if err := s.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	now := drain(t, s, 0, time.Millisecond) + time.Second
	sess := s.SessionByUser("alice")
	lost := sess.Encoder.LastSeq() + 1 // 'a', which leaves on the full bucket
	for _, msg := range []protocol.Message{
		&protocol.BandwidthGrant{SessionID: sess.ID, Bps: 8},
		&protocol.KeyEvent{Code: 'a', Down: true},
		&protocol.KeyEvent{Code: 'x', Down: true},
		&protocol.Nack{From: lost, To: lost},
		&protocol.KeyEvent{Code: 'c', Down: true},
	} {
		if err := s.Handle("c1", msg, now); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Encoder.LastSeq() != lost {
		t.Fatalf("%d commands encoded after the grant, want the first fill alone: the debt did not wait, or a later op was sent",
			sess.Encoder.LastSeq()-lost+1)
	}
	var owed fb.Region
	for _, r := range s.Owed("alice") {
		owed.Add(r)
	}
	owed.Subtract(from)
	owed.Subtract(app['x'].Bounds())
	if owed.Area() != to.Pixels() || owed.Bounds() != to {
		t.Fatalf("owed %v, want the lost fill's rect, the owed fill's and the COPY's destination", s.Owed("alice"))
	}
	drain(t, s, now+time.Hour, time.Hour)
	screen := fb.New(64, 64)
	for _, wire := range tr.sent["c1"] {
		seq, msg, _, err := protocol.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type() == protocol.TypeCopy {
			t.Fatal("a COPY of owed pixels reached the wire")
		}
		if msg.Type().IsDisplay() && seq != lost {
			if err := screen.Apply(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !screen.Equal(sess.Encoder.FB) {
		n, _ := screen.DiffPixels(sess.Encoder.FB)
		t.Errorf("a console that lost the fill differs in %d pixels after the debt was paid", n)
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
	name := `slim_flow_grant_bps{session="alice"}`
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
