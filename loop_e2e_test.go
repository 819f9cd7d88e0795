package slim

import (
	"context"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// A UDP endpoint is one loop on one goroutine (udp.go): it reads its socket
// until the next instant its clock owes something, then pays it. The tests
// below hold a live socket to what that buys: one writer, so a console's
// datagrams arrive in the order they were numbered; a paced tail that
// leaves when its tokens arrive; housekeeping that rides the console's
// heartbeat; and nothing left running after Close.

// grantOf reads the bandwidth grant a governed session last received, as
// its server published it (the governor itself is the serving goroutine's).
func grantOf(kit *TelemetryKit, user string) int64 {
	return kit.Registry.Gauge(`slim_flow_grant_bps{session="` + user + `"}`).Value()
}

// wallpaperApp is a terminal whose first echo lays a wallpaper under the
// text: a screen whose gen-2 repaint is a tile of pixels and a cache hit
// for every other tile, 143 KB at 1280×1024, more than a burst.
type wallpaperApp struct {
	Application
	wallpaper ImageOp
	laid      bool
}

func (a *wallpaperApp) HandleKey(ev protocol.KeyEvent) []Op {
	echo := a.Application.HandleKey(ev)
	if a.laid {
		return echo
	}
	a.laid = true
	return append([]Op{a.wallpaper}, echo...)
}

// TestUDPOneWriterInOrder is the live twin of TestRecoveryStormOwesOneScreen:
// the shipped profile at 1280×1024, a session hotdesked under a live grant
// — its repaint, text on a wallpaper of 5,120 tiles, owed and paid in
// paced pieces — while a key is typed every few milliseconds. Paced pieces
// and keystroke echoes come from different server calls, and they reach
// each console in sequence order because one goroutine makes every call
// and every write. (With a pacer goroutine
// beside the read loop, a paced burst overtook an echo's: cache misses,
// spurious NACKs, each answered with about a frame.)
func TestUDPOneWriterInOrder(t *testing.T) {
	kit := NewTelemetry()
	consoles := obs.NewRegistry(obs.DomainWall)
	cfg := shippedConsole(1280, 1024)
	cfg.Obs = consoles
	wp := wallpaper(rand.New(rand.NewSource(7)), 1280, 1024)
	term := WithTerminalApp()
	apps := func(user string, w, h int) Application {
		return &wallpaperApp{Application: term(user, w, h), wallpaper: wp}
	}
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", apps, WithTelemetry(kit))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-h", "hot")
	ring := Capture()
	ring.Drain()
	ring.SetEnabled(true)
	defer ring.SetEnabled(false)

	dial := func() *UDPConsole {
		t.Helper()
		con, err := DialConsoleContext(testContext(t), srv.Addr().String(), cfg, TokenOf("card-h"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { con.Close() })
		waitAttached(t, con)
		return con
	}
	con1 := dial()
	settledSeq(t, con1, 0)
	for deadline := time.Now().Add(3 * time.Second); grantOf(kit, "hot") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the console granted the session no bandwidth; nothing is paced")
		}
	}

	// The typist follows the session from desk to desk.
	var desk atomic.Pointer[UDPConsole]
	desk.Store(con1)
	stop, typed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(typed)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				_ = desk.Load().TypeString(string(rune('a' + i%26)))
			}
		}
	}()
	time.Sleep(100 * time.Millisecond)
	con2 := dial() // the hotdesk
	desk.Store(con2)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	<-typed
	settledSeq(t, con2, 0)
	time.Sleep(2 * StatusAckDelay)
	ring.SetEnabled(false)

	last := map[string]uint32{}
	commands := map[string]int{}
	for _, rec := range ring.Drain() {
		if rec.Dir != capture.DirDown {
			continue
		}
		rec.Walk(func(seq uint32, m protocol.Message, _ int) {
			if !m.Type().IsDisplay() {
				return
			}
			if prev, seen := last[rec.Console]; seen && int32(seq-prev) <= 0 {
				t.Errorf("console %s: display command %d left after %d", rec.Console, seq, prev)
			}
			last[rec.Console] = seq
			commands[rec.Console]++
		})
	}
	if ring.Drops() != 0 {
		t.Errorf("the capture ring shed %d records", ring.Drops())
	}
	// Each console saw at least a repaint of the screen it attached to:
	// blank for the first; for the second the wallpaper, where a tile of
	// text costs what the tile of wallpaper it covers does.
	papered := NewEncoder(1280, 1024).FB
	if err := papered.Set(wp.Rect, wp.Pixels); err != nil {
		t.Fatal(err)
	}
	for con, screen := range map[*UDPConsole]*fb.Framebuffer{con1: NewEncoder(1280, 1024).FB, con2: papered} {
		repaint := freshRepaint(screen, true)
		if id := con.conn.LocalAddr().String(); commands[id] < len(repaint) {
			t.Errorf("console %s: %d display commands captured, want its %d-command repaint and more", id, commands[id], len(repaint))
		}
	}
	if n, d := consoles.Counter("slim_console_nacks_total").Value(), consoles.Counter("slim_console_dropped_total").Value(); n != 0 || d != 0 {
		t.Errorf("the consoles sent %d NACKs and dropped %d commands on a loopback that loses nothing (%d of them cache misses)", n, d, consoles.Counter("slim_console_cache_misses_total").Value())
	}
	sess := srv.Server.SessionByUser("hot") // the lock orders this after the last paint
	if !con2.Console.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := con2.Console.Framebuffer().DiffPixels(sess.Encoder.FB)
		t.Errorf("the hotdesked console differs from the session's frame buffer in %d pixels", n)
	}
}

// paintApp answers any key press with its one image.
type paintApp ImageOp

func (a paintApp) HandleKey(ev protocol.KeyEvent) []Op {
	if !ev.Down {
		return nil
	}
	return []Op{ImageOp(a)}
}

func (a paintApp) HandlePointer(protocol.PointerEvent) []Op { return nil }

// TestPacedTailLeavesOnTime: a paint of about 1.1 bursts leaves a tenth of
// a burst owed behind the call that painted it. The endpoint learns that
// from the call (FlowPending) and reads its socket only until the tail's
// tokens have arrived. (A pacer goroutine asleep on its 20 ms idle poll
// could not be told: the tail left 0–20 ms late, uniformly.)
func TestPacedTailLeavesOnTime(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("a wall-clock bound of a few milliseconds")
	}
	const (
		burst = 64 << 10
		grant = 100_000_000 // the console's whole link, below the demand's floor: it never moves
		side  = 154         // 154² pixels of noise ≈ 1.1 bursts on the wire
	)
	kit := NewTelemetry()
	app := paintApp{Rect: Rect{W: side, H: side}, Pixels: make([]Pixel, side*side)}
	rng := rand.New(rand.NewSource(20))
	for i := range app.Pixels {
		app.Pixels[i] = Pixel(rng.Uint32() & 0xffffff)
	}
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0",
		func(string, int, int) Application { return app },
		WithFlowControl(FlowConfig{InitialBps: 8 * grant, BurstBytes: burst}), WithTelemetry(kit))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-p", "paced")
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240, TotalBps: grant}, TokenOf("card-p"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	waitAttached(t, con)
	seq := settledSeq(t, con, 0)
	if g := grantOf(kit, "paced"); g != grant {
		t.Fatalf("the console granted %d bit/s, want %d", g, grant)
	}
	sess := srv.Server.SessionByUser("paced")

	var spans []time.Duration
	var tailBytes int64
	for i := 0; i < 20; i++ {
		time.Sleep(30 * time.Millisecond) // the bucket refills in 5 ms
		if err := con.SendKey('p', true); err != nil {
			t.Fatal(err)
		}
		end := settledSeq(t, con, seq)
		var first, lastTx time.Duration
		var sent int64
		for _, ev := range kit.Flight.Events(sess.ID, 0) {
			if ev.Kind != flight.EvTx || int32(ev.Seq-seq) <= 0 || int32(ev.Seq-end) > 0 {
				continue
			}
			if sent == 0 {
				first = ev.T
			}
			lastTx, sent = ev.T, sent+ev.A
		}
		if sent <= burst {
			t.Fatalf("paint %d was %d B on the wire, want more than the %d B burst", i, sent, burst)
		}
		tailBytes = sent - burst
		spans = append(spans, lastTx-first)
		seq = end
	}
	slices.Sort(spans)
	tokens := time.Duration(float64(tailBytes*8) / grant * float64(time.Second))
	t.Logf("tail of %d B: tokens take %v; last TX trailed the first by %v (median), %v (max)",
		tailBytes, tokens, spans[len(spans)/2], spans[len(spans)-1])
	if median := spans[len(spans)/2]; median > tokens+3*time.Millisecond {
		t.Errorf("the tail left %v after the paint began (median of %d), want within its token time %v + 3ms",
			median, len(spans), tokens)
	}
}

// TestIdleSessionReturnsItsGrant: with nothing owed no pump is scheduled,
// so the console's heartbeat is the clock an idle session's housekeeping
// runs on (Server.handleStatus). A session that only ever drew its attach
// repaint hands the grant it asked for back — re-announces the floor of
// its demand — within the governor's one-second demand window plus two
// heartbeats.
func TestIdleSessionReturnsItsGrant(t *testing.T) {
	const ceiling = 80_000_000
	kit := NewTelemetry()
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp(),
		WithFlowControl(FlowConfig{InitialBps: ceiling}), WithTelemetry(kit))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-i", "idle")
	t0 := time.Now()
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 160, Height: 120}, TokenOf("card-i"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	const bound = time.Second + 2*StatusInterval
	sawCeiling := false
	for {
		g := grantOf(kit, "idle")
		sawCeiling = sawCeiling || g == ceiling
		if g == ceiling/8 {
			break
		}
		if time.Since(t0) > bound {
			t.Fatalf("%v after attach the grant is %d bit/s, want the demand's floor %d", bound, g, ceiling/8)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawCeiling {
		t.Error("the session never held the grant it first asked for; nothing was handed back")
	}
	t.Logf("floored demand granted %v after attach", time.Since(t0))
}

// udpStacks counts the goroutines running udpSocket code.
func udpStacks() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "slim.(*udpSocket)") {
			n++
		}
	}
	return n
}

// TestOneGoroutinePerSocket: a daemon that paces and ticks, a broker fleet
// and two consoles are four sockets and four goroutines; Close leaves
// none, and a broker whose context is never cancelled leaves none either.
func TestOneGoroutinePerSocket(t *testing.T) {
	settle := func(want func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !want() && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
	}
	settle(func() bool { return udpStacks() == 0 }) // earlier tests' context watchers
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := ListenAndServeContext(ctx, "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	srv.Server.Auth.Register("card-g", "gor")
	srv.StartTicker(60)
	fleet, err := ListenAndServeBroker(ctx, "127.0.0.1:0", BrokerConfig{Shards: 2}, WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	fleet.Broker.Register(TokenOf("card-g"), "gor")
	fleet.StartTicker(60)
	var cons []*UDPConsole
	for _, addr := range []net.Addr{srv.Addr(), fleet.Addr()} {
		con, err := DialConsoleContext(ctx, addr.String(), ConsoleConfig{Width: 160, Height: 120}, TokenOf("card-g"))
		if err != nil {
			t.Fatal(err)
		}
		waitAttached(t, con)
		if err := con.TypeString("x"); err != nil {
			t.Fatal(err)
		}
		cons = append(cons, con)
	}
	time.Sleep(3 * StatusAckDelay) // ticks, pumps and polls have all come round
	if n := udpStacks(); n != 4 {
		t.Errorf("%d goroutines in udpSocket code with four sockets open, want 4", n)
	}
	if n := runtime.NumGoroutine(); n > before+4 {
		t.Errorf("goroutines: %d before, %d with four sockets open, want %d", before, n, before+4)
	}
	for _, c := range cons {
		c.Close()
	}
	srv.Close()
	fleet.Close()
	fleet.Broker.Close()
	// Close returns on the loop's last act, not after it.
	settle(func() bool { return udpStacks() == 0 && runtime.NumGoroutine() <= before })
	if n := udpStacks(); n != 0 {
		t.Errorf("%d goroutines in udpSocket code after Close, want none", n)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines: %d before, %d after every Close with the context still live", before, n)
	}
}

// tickCounter is a SessionHandler that only counts Ticks.
type tickCounter struct {
	SessionHandler
	ticks chan struct{}
}

func (h tickCounter) HandleDatagram(string, []byte, time.Duration) error { return nil }
func (h tickCounter) FlowPending() bool                                  { return false }
func (h tickCounter) Tick(time.Duration) error {
	select {
	case h.ticks <- struct{}{}:
	default:
	}
	return nil
}

// TestStartTickerWakeIsNotLost: StartTicker reaches a loop that has no
// deadline to wake at by setting the socket's read deadline from outside,
// and the loop sets its own every time round. Whichever lands last, the
// first tick comes (udpSocket.kick); a lost wake-up would leave the loop in
// a read nothing ends. Each round races StartTicker against a new loop's
// first time round, a little later every round.
func TestStartTickerWakeIsNotLost(t *testing.T) {
	for round := 0; round < 2000; round++ {
		l, err := listenUDP(context.Background(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		h := tickCounter{ticks: make(chan struct{}, 1)}
		l.run(context.Background(), h)
		for t0 := time.Now(); time.Since(t0) < time.Duration(round%100)*time.Microsecond; {
		}
		l.StartTicker(1000)
		select {
		case <-h.ticks:
		case <-time.After(2 * time.Second):
			l.Close()
			t.Fatalf("round %d: StartTicker never woke the loop", round)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// stuckPump is a SessionHandler whose debt never clears and whose every
// PumpFlows names now as the next pump: what Server.PumpFlows reports when
// the half-burst cap stopped a repayment with tokens left.
type stuckPump struct {
	SessionHandler
	pumps int
}

func (h *stuckPump) FlowPending() bool { return true }
func (h *stuckPump) PumpFlows(now time.Duration) (time.Duration, bool, error) {
	h.pumps++
	return now, true, nil
}

// TestUDPPumpFloor: the endpoint's clock spaces two pumps of one debt by at
// least a millisecond even when PumpFlows asks for the next at once. That
// floor is what spaces the two halves of a burst repayment's cap, so a
// hotdesk under a live grant does not hand its console a whole bucket in
// one go (Session.repay).
func TestUDPPumpFloor(t *testing.T) {
	h := &stuckPump{}
	l := &udpListener{handler: h}
	now := obs.Wall.Now()
	next, ok := l.due(now)
	if h.pumps != 1 || !ok {
		t.Fatalf("a pending debt drew %d pumps (scheduled %v), want 1 and a next pump", h.pumps, ok)
	}
	if next < now+time.Millisecond {
		t.Fatalf("next pump %v after the first, want at least 1ms", next-now)
	}
	if again, _ := l.due(next - time.Microsecond); h.pumps != 1 || again != next {
		t.Errorf("before its instant the loop pumped %d times and scheduled %v, want 1 and %v", h.pumps, again, next)
	}
	if l.due(next); h.pumps != 2 {
		t.Errorf("at its instant the loop pumped %d times in all, want 2", h.pumps)
	}
}
