package slim

import (
	"math/rand"
	"net"
	"slices"
	"testing"
	"time"

	"slim/internal/fb"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
	"slim/internal/video"
)

// The console's STATUS cadence is one rule (internal/console/status.go)
// run by both transports. The sim-domain test below drives it through the
// fabric's virtual clock and checks the property the paper rests on — a
// console that lost everything heals from the server's pixels, once; the
// wall-domain test pins what a UDP console puts on the wire.

// TestRebootHealsThroughHeartbeat reboots a console under a live session:
// the replacement holds no soft state and has acknowledged nothing, and
// nobody tells the server. Its idle heartbeat alone must bring exactly one
// recovery repaint — not zero (the console stays blank) and not a storm.
func TestRebootHealsThroughHeartbeat(t *testing.T) {
	fabric, srv := newFabricSystem(t)
	cfg := ConsoleConfig{Width: 320, Height: 240}
	con, err := NewConsole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	sess := srv.SessionByUser("alice")
	for sess.Encoder.LastSeq() <= 1024 {
		if err := fabric.TypeString("desk-1", "the quick brown fox jumps over the lazy dog\n"); err != nil {
			t.Fatal(err)
		}
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		t.Fatal("console diverged before the reboot")
	}

	// What one full repaint of this screen costs: the hotdesk of a fresh
	// console onto the session and back. Nothing else moves the encoder.
	spare, err := NewConsole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-2", spare, srv)
	if err := fabric.Boot("desk-2", "card-alice"); err != nil {
		t.Fatal(err)
	}
	fullRepaint, _ := spare.Counters()
	if err := fabric.InsertCard("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}

	tick := func() {
		t.Helper()
		fabric.SetClock(fabric.Now() + StatusInterval)
		if err := fabric.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	tick() // the old console acknowledges everything it was sent
	before := sess.Encoder.LastSeq()

	fresh, err := NewConsole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", fresh, srv)
	tick()
	sent := uint64(sess.Encoder.LastSeq() - before)
	applied, dropped := fresh.Counters()
	if sent == 0 {
		t.Fatal("the rebooted console's heartbeat brought no recovery repaint")
	}
	if sent > fullRepaint || applied != sent || dropped != 0 {
		t.Errorf("recovery sent %d commands (console applied %d, dropped %d); one full repaint is %d",
			sent, applied, dropped, fullRepaint)
	}
	if !fresh.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := fresh.Framebuffer().DiffPixels(sess.Encoder.FB)
		t.Errorf("rebooted console differs from the session's frame buffer in %d pixels", n)
	}
	healed := sess.Encoder.LastSeq()
	for i := 0; i < 3; i++ {
		tick()
	}
	if got := sess.Encoder.LastSeq(); got != healed {
		t.Errorf("heartbeats from a healed console sent %d more commands", got-healed)
	}
}

// settledSeq waits until the console has applied display traffic past seq
// and then none for 30 ms, and returns the sequence it settled at. (The
// session's encoder is the server goroutine's; a test watching a live UDP
// pair reads the console, which locks.)
func settledSeq(t *testing.T, con *UDPConsole, past uint32) uint32 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		seq := con.Console.Status().LastSeq
		time.Sleep(30 * time.Millisecond)
		if seq != past && con.Console.Status().LastSeq == seq {
			return seq
		}
	}
	t.Fatalf("console never settled past seq %d", past)
	return 0
}

// burstApp answers 'b' with burstLen one-cell fills (one FILL datagram
// each) and any other key with one.
type burstApp struct{ n uint32 }

const burstLen = 200

func (a *burstApp) HandleKey(ev protocol.KeyEvent) []Op {
	if !ev.Down {
		return nil
	}
	count := 1
	if ev.Code == 'b' {
		count = burstLen
	}
	ops := make([]Op, count)
	for i := range ops {
		a.n++
		ops[i] = FillOp{
			Rect:  Rect{X: int(a.n % 20 * 16), Y: int(a.n / 20 % 15 * 16), W: 16, H: 16},
			Color: Pixel(a.n * 2654435761),
		}
	}
	return ops
}

func (a *burstApp) HandlePointer(protocol.PointerEvent) []Op { return nil }

// TestUDPStatusCadence pins the STATUS traffic a UDP console produces, as
// the server sees it: the idle heartbeat, the prompt ack of an echo, and
// the rate limit inside a burst.
func TestUDPStatusCadence(t *testing.T) {
	kit := NewTelemetry()
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0",
		func(string, int, int) Application { return &burstApp{} }, WithTelemetry(kit))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-c", "cadence")
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240}, TokenOf("card-c"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	waitAttached(t, con)
	sess := srv.Server.SessionByUser("cadence")

	// statuses lists the session's STATUS events stamped in [from, to].
	statuses := func(from, to time.Duration) []flight.Event {
		var out []flight.Event
		for _, ev := range kit.Flight.Events(sess.ID, 0) {
			if ev.Kind == flight.EvStatus && ev.T >= from && ev.T <= to {
				out = append(out, ev)
			}
		}
		return out
	}
	// acked waits for a STATUS stamped after from that acknowledges seq,
	// and returns it.
	acked := func(from time.Duration, seq uint32) flight.Event {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, ev := range statuses(from, kit.Clock.Now()) {
				if uint32(ev.A) == seq {
					return ev
				}
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("no STATUS acknowledged seq %d", seq)
		return flight.Event{}
	}
	// burstApp turns every op into one FILL datagram, so the test knows
	// each sequence number the session will reach.
	seq := settledSeq(t, con, 0)
	acked(0, seq) // the attach repaint's trailing ack

	// Idle: nothing but the heartbeat, every StatusInterval.
	t0 := kit.Clock.Now()
	time.Sleep(1300 * time.Millisecond)
	if n := len(statuses(t0, t0+1200*time.Millisecond)); n < 2 || n > 3 {
		t.Errorf("idle console sent %d STATUS in 1.2s, want 2-3 (one per %v)", n, StatusInterval)
	}

	// One keystroke: its echo is acknowledged on receipt, not at the next
	// heartbeat.
	const slack = 150 * time.Millisecond
	t0 = kit.Clock.Now()
	if err := con.SendKey('k', true); err != nil {
		t.Fatal(err)
	}
	seq++
	if ack := acked(t0, seq); ack.T-t0 > StatusAckDelay+slack {
		t.Errorf("echo acknowledged after %v, want within %v", ack.T-t0, StatusAckDelay+slack)
	}

	// A burst: at most one ack per StatusAckDelay while it lasts, then one
	// trailing ack that covers its end.
	time.Sleep(2 * StatusAckDelay)
	t0 = kit.Clock.Now()
	if err := con.SendKey('b', true); err != nil {
		t.Fatal(err)
	}
	seq += burstLen
	last := acked(t0, seq)
	time.Sleep(3 * StatusAckDelay) // anything still trailing has landed
	t1 := kit.Clock.Now()
	evs := statuses(t0, t1)
	if limit := int((last.T-t0)/StatusAckDelay) + 2; len(evs) > limit {
		t.Errorf("burst drew %d STATUS over %v, want at most %d", len(evs), last.T-t0, limit)
	}
	for i := 1; i < len(evs); i++ {
		// Spacing is the console's; arrival jitter can only shave it.
		if gap := evs[i].T - evs[i-1].T; gap < StatusAckDelay/2 {
			t.Errorf("STATUS %d and %d arrived %v apart, want about %v or more", i-1, i, gap, StatusAckDelay)
		}
	}
}

// noiseApp answers 'p' with one 512×384 image of noise — about 600 KB of
// literal tiles, more than nine times the most a paint may overdraw the
// governor's bucket by (64 KiB) — and any
// other key with its echo, one glyph cell at the top left (echoCell).
type noiseApp struct{ pix []Pixel }

var echoCell = Rect{W: 8, H: 16}

func (a *noiseApp) HandleKey(ev protocol.KeyEvent) []Op {
	if !ev.Down {
		return nil
	}
	if ev.Code == 'p' {
		return []Op{ImageOp{Rect: Rect{X: 64, Y: 48, W: 512, H: 384}, Pixels: a.pix}}
	}
	bits := make([]byte, echoCell.H)
	for i := range bits {
		bits[i] = byte(ev.Code) << (i % 3)
	}
	return []Op{TextOp{Rect: echoCell, Fg: 0xffffff, Bits: bits}}
}

func (a *noiseApp) HandlePointer(protocol.PointerEvent) []Op { return nil }

// TestOversizedPaintIsOwed: a paint larger than the governor may overdraw
// its bucket by is never encoded whole. Admission refuses it; the session
// applies it to its frame buffer, owes the console its rect, and pays the
// debt from current pixels in pieces cut to the tokens. So the bucket is
// never overdrawn by more than a burst, no command is lost for the console
// to NACK, and a keystroke typed right after the paint is painted while
// most of the paint is still owed.
// (Encoded at once, the paint overflowed the queue, was evicted from the
// head, and came back tile by tile through NACKs — behind the echo's
// queue position or not at all.)
func TestOversizedPaintIsOwed(t *testing.T) {
	kit := NewTelemetry()
	app := &noiseApp{pix: make([]Pixel, 512*384)}
	rng := rand.New(rand.NewSource(18))
	for i := range app.pix {
		app.pix[i] = Pixel(rng.Uint32() & 0xffffff)
	}
	cfg := shippedConsole(640, 480)
	cfg.Obs = kit.Registry
	fabric := NewFabric()
	srv := NewServer(fabric, func(string, int, int) Application { return app }, WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")
	con, err := NewConsole(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	sess := srv.SessionByUser("alice")
	if err := fabric.SendKey("desk-1", 'p', true); err != nil {
		t.Fatal(err)
	}
	if srv.Owed("alice") == nil {
		t.Fatal("the governor admitted the paint; nothing was owed")
	}
	if err := fabric.SendKey("desk-1", 'e', true); err != nil {
		t.Fatal(err)
	}
	// Step the clock until the echo is on the console's glass.
	burst, overdrawn := sess.Governor().Config().BurstBytes, 0
	for !slices.Equal(con.Framebuffer().ReadRectInto(nil, echoCell), sess.Encoder.FB.ReadRectInto(nil, echoCell)) {
		if fabric.Now() > time.Minute {
			t.Fatal("the echo never reached the console")
		}
		overdrawn = max(overdrawn, -sess.Governor().Tokens(fabric.Now()))
		fabric.SetClock(fabric.Now() + time.Millisecond)
		if err := fabric.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Owed("alice") == nil {
		t.Errorf("the echo reached the console after %v, once the whole paint was paid", fabric.Now())
	}
	overdrawn = max(overdrawn, pumpQuiet(t, fabric, srv, sess, 10*time.Millisecond, time.Second))
	if overdrawn > burst {
		t.Errorf("the bucket was overdrawn by %d bytes, more than a burst of %d", overdrawn, burst)
	}
	if n := kit.Registry.Counter("slim_console_nacks_total").Value(); n != 0 {
		t.Errorf("the console sent %d NACKs on a fabric that drops nothing", n)
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
		t.Errorf("console differs from the session's frame buffer in %d pixels after %v quiet (%d commands sent)",
			n, time.Second, sess.Encoder.LastSeq())
	}
}

// keptSource is a video source that keeps a copy of the frame it last
// drew, for a test to read after the frame's surface is redrawn.
type keptSource struct {
	VideoSource
	last []Pixel
}

func (s *keptSource) Next() video.Frame {
	f := s.VideoSource.Next()
	s.last = append(s.last[:0], f.Pixels...)
	return f
}

// TestOwedVideoFrameHeals: a governed session playing video faster than
// its console's grant owes most frames, and an owed frame costs a copy:
// right after the tick that refused it, the session's frame buffer holds
// the frame's own pixels at the player's rect (scaled bilinearly to it
// when the source is smaller), not a CSCS reconstruction of them. The
// console never sees those pixels but through a repayment, which encodes
// them afresh, so once the playing stops and the debt is paid the console
// equals the session pixel for pixel, with no NACK: a gen-1 console
// (repaid in literal SETs) playing at size and a gen-2 one (whose churning
// tiles are repaid as CSCS) playing a quarter-size source scaled up.
func TestOwedVideoFrameHeals(t *testing.T) {
	kit := NewTelemetry()
	type player struct {
		user, card, desk string
		cfg              ConsoleConfig
		src              *keptSource
		dst              Rect
		con              *Console
		sess             *Session
		owed, sent       int
	}
	players := []*player{
		{user: "gen1", card: "card-gen1", desk: "desk-1", cfg: ConsoleConfig{Width: 640, Height: 480},
			src: &keptSource{VideoSource: NewQuakeSource(320, 240, 11)}, dst: Rect{X: 40, Y: 24, W: 320, H: 240}},
		{user: "gen2", card: "card-gen2", desk: "desk-2", cfg: shippedConsole(640, 480),
			src: &keptSource{VideoSource: NewQuakeSource(160, 120, 12)}, dst: Rect{X: 100, Y: 60, W: 320, H: 240}},
	}
	fabric := NewFabric()
	srv := NewServer(fabric, func(user string, _, _ int) Application {
		for _, p := range players {
			if p.user == user {
				return NewVideoApp(p.src, p.dst, CSCS6, 24)
			}
		}
		return nil
	}, WithTelemetry(kit))
	for _, p := range players {
		srv.Auth.Register(p.card, p.user)
		p.cfg.TotalBps, p.cfg.Obs = 1_000_000, kit.Registry
		con, err := NewConsole(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		fabric.Attach(p.desk, con, srv)
		if err := fabric.Boot(p.desk, p.card); err != nil {
			t.Fatal(err)
		}
		p.con, p.sess = con, srv.SessionByUser(p.user)
	}
	// Two seconds of 24 fps video against a 1 Mbit/s grant, in 5 ms steps.
	for now := time.Duration(0); now < 2*time.Second; now += 5 * time.Millisecond {
		fabric.SetClock(now)
		type before struct {
			frames int
			seq    uint32
		}
		was := make([]before, len(players))
		for i, p := range players {
			was[i] = before{p.sess.App.(*VideoApp).Frames(), p.sess.Encoder.LastSeq()}
		}
		if err := srv.Tick(now); err != nil {
			t.Fatal(err)
		}
		for i, p := range players {
			switch {
			case p.sess.App.(*VideoApp).Frames() == was[i].frames:
			case p.sess.Encoder.LastSeq() != was[i].seq:
				p.sent++
			default:
				p.owed++
				want := p.src.last
				if w, h := p.src.Geometry(); w != p.dst.W || h != p.dst.H {
					var err error
					if want, err = fb.ScaleBilinear(want, w, h, p.dst.W, p.dst.H); err != nil {
						t.Fatal(err)
					}
				}
				if got := p.sess.Encoder.FB.ReadRect(p.dst); !slices.Equal(got, want) {
					t.Fatalf("%s: at %v the owed frame's rect does not hold the frame's own pixels", p.user, now)
				}
				if srv.Owed(p.user) == nil {
					t.Fatalf("%s: at %v a frame was neither sent nor owed", p.user, now)
				}
			}
		}
		if err := fabric.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range players {
		if p.owed < 10 || p.sent == 0 {
			t.Errorf("%s: %d frames owed and %d sent; want the grant to refuse most but not all", p.user, p.owed, p.sent)
		}
		t.Logf("%s: %d frames owed, %d sent", p.user, p.owed, p.sent)
		pumpQuiet(t, fabric, srv, p.sess, 10*time.Millisecond, time.Second)
		if !p.con.Framebuffer().Equal(p.sess.Encoder.FB) {
			n, _ := p.con.Framebuffer().DiffPixels(p.sess.Encoder.FB)
			t.Errorf("%s: console differs from the session's frame buffer in %d pixels after a quiet second", p.user, n)
		}
	}
	if n := kit.Registry.Counter("slim_console_nacks_total").Value(); n != 0 {
		t.Errorf("the consoles sent %d NACKs on a fabric that drops nothing", n)
	}
}

// TestStrangersStayOutOfTheConsoleTable: only a Hello introduces a
// console. A Pong, a Device datagram, a BandwidthGrant and a KeyEvent,
// each from a source that never said Hello, are refused by a server and
// by a broker alike, so none of the four sources becomes routable on the
// listener, and the refused key is no input: slim_input_events_total
// stays 0.
func TestStrangersStayOutOfTheConsoleTable(t *testing.T) {
	ctx := testContext(t)
	singleKit, fleetKit := NewTelemetry(), NewTelemetry()
	single, err := ListenAndServeContext(ctx, "127.0.0.1:0", WithTerminalApp(), WithTelemetry(singleKit))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	fleet, err := ListenAndServeBroker(ctx, "127.0.0.1:0", BrokerConfig{Shards: 2},
		WithTerminalApp(), WithTelemetry(fleetKit))
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	for _, tc := range []struct {
		name string
		l    *udpListener
		kit  *TelemetryKit
	}{{"server", single.udpListener, singleKit}, {"broker", fleet.udpListener, fleetKit}} {
		t.Run(tc.name, func(t *testing.T) {
			to := tc.l.Addr().(*net.UDPAddr)
			for _, msg := range []protocol.Message{
				&protocol.Pong{Nonce: 1},
				&protocol.Device{Port: 1, Payload: []byte{1}},
				&protocol.BandwidthGrant{SessionID: 1, Bps: 1 << 20},
				&protocol.KeyEvent{Code: 'x', Down: true},
			} {
				c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if _, err := c.WriteToUDP(protocol.Encode(nil, 0, msg), to); err != nil {
					t.Fatal(err)
				}
			}
			// One loop reads the socket in arrival order, so once a fifth
			// source's Hello is answered the four before it were handled.
			hello, err := net.DialUDP("udp", nil, to)
			if err != nil {
				t.Fatal(err)
			}
			defer hello.Close()
			if _, err := hello.Write(protocol.Encode(nil, 0, &protocol.Hello{Width: 64, Height: 48})); err != nil {
				t.Fatal(err)
			}
			_ = hello.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := hello.Read(make([]byte, 2048)); err != nil {
				t.Fatalf("no reply to the barrier Hello: %v", err)
			}
			if n := tc.kit.Registry.Counter("slim_input_events_total").Value(); n != 0 {
				t.Errorf("a stranger's refused KeyEvent was counted: slim_input_events_total = %d", n)
			}
			tc.l.addrMu.Lock()
			defer tc.l.addrMu.Unlock()
			want := hello.LocalAddr().(*net.UDPAddr).AddrPort()
			for addr := range tc.l.consoles {
				if addr != want {
					t.Errorf("a source that never said Hello entered the console table: %v", addr)
				}
			}
		})
	}
}
