package slim

import (
	"context"
	"net"
	"testing"
	"time"

	"slim/internal/protocol"
)

// testContext returns a context cancelled when the test ends, so a daemon
// or console a test forgot to Close still stops with it.
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

func newFabricSystem(t *testing.T) (*Fabric, *Server) {
	t.Helper()
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp())
	srv.Auth.Register("card-alice", "alice")
	srv.Auth.Register("card-bob", "bob")
	return fabric, srv
}

func attachConsole(t *testing.T, fabric *Fabric, srv *Server, desk, card string) *Console {
	t.Helper()
	con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach(desk, con, srv)
	if err := fabric.Boot(desk, card); err != nil {
		t.Fatal(err)
	}
	return con
}

func TestFabricQuickstartFlow(t *testing.T) {
	fabric, srv := newFabricSystem(t)
	con := attachConsole(t, fabric, srv, "desk-1", "card-alice")
	if con.SessionID() == 0 {
		t.Fatal("console has no session after boot with card")
	}
	if err := fabric.TypeString("desk-1", "hi\n"); err != nil {
		t.Fatal(err)
	}
	applied, dropped := con.Counters()
	if applied == 0 || dropped != 0 {
		t.Errorf("applied=%d dropped=%d", applied, dropped)
	}
	// Console screen equals the server's authoritative frame buffer.
	sess := srv.SessionByUser("alice")
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		t.Error("console diverged from server state")
	}
}

func TestFabricMobilityExactRestore(t *testing.T) {
	fabric, srv := newFabricSystem(t)
	con1 := attachConsole(t, fabric, srv, "desk-1", "")
	con2 := attachConsole(t, fabric, srv, "desk-2", "")

	if err := fabric.InsertCard("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	if err := fabric.TypeString("desk-1", "state lives on the server"); err != nil {
		t.Fatal(err)
	}
	before := con1.Framebuffer().Snapshot()
	sessionID := con1.SessionID()

	if err := fabric.InsertCard("desk-2", "card-alice"); err != nil {
		t.Fatal(err)
	}
	if con2.SessionID() != sessionID || sessionID == 0 {
		t.Error("session did not follow the card")
	}
	if con1.SessionID() != 0 {
		t.Error("old console still attached")
	}
	if !con2.Framebuffer().Equal(before) {
		t.Error("screen not restored bit-for-bit at the new desk")
	}
	// Typing continues at the new desk only.
	if err := fabric.TypeString("desk-2", "!"); err != nil {
		t.Fatal(err)
	}
	if err := fabric.TypeString("desk-1", "x"); err == nil {
		t.Error("detached desk still accepted input")
	}
}

func TestFabricTwoUsersTwoDesks(t *testing.T) {
	fabric, srv := newFabricSystem(t)
	conA := attachConsole(t, fabric, srv, "desk-a", "card-alice")
	conB := attachConsole(t, fabric, srv, "desk-b", "card-bob")
	if err := fabric.TypeString("desk-a", "aaaa"); err != nil {
		t.Fatal(err)
	}
	if err := fabric.TypeString("desk-b", "bb"); err != nil {
		t.Fatal(err)
	}
	sa, sb := srv.SessionByUser("alice"), srv.SessionByUser("bob")
	if sa.ID == sb.ID {
		t.Fatal("users share a session")
	}
	if !conA.Framebuffer().Equal(sa.Encoder.FB) || !conB.Framebuffer().Equal(sb.Encoder.FB) {
		t.Error("a console diverged")
	}
	if conA.Framebuffer().Equal(conB.Framebuffer()) {
		t.Error("different sessions show identical screens")
	}
}

func TestFabricPointer(t *testing.T) {
	fabric, srv := newFabricSystem(t)
	attachConsole(t, fabric, srv, "desk-1", "card-alice")
	if err := fabric.SendPointer("desk-1", 100, 50, 1); err != nil {
		t.Fatal(err)
	}
	term := srv.SessionByUser("alice").App.(*Terminal)
	col, row := term.Cursor()
	if col == 0 && row == 0 {
		t.Error("click did not move the terminal cursor")
	}
}

func TestFabricErrors(t *testing.T) {
	fabric, _ := newFabricSystem(t)
	if err := fabric.Boot("ghost", ""); err == nil {
		t.Error("boot of unknown desk succeeded")
	}
	if err := fabric.SendKey("ghost", 'a', true); err == nil {
		t.Error("key to unknown desk succeeded")
	}
	if _, err := fabric.Console("ghost"); err == nil {
		t.Error("lookup of unknown desk succeeded")
	}
	if err := fabric.Send("ghost", nil); err == nil {
		t.Error("send to unknown desk succeeded")
	}
}

func TestUDPEndToEnd(t *testing.T) {
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-u", "udpuser")

	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240}, TokenOf("card-u"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()

	// Wait for the attach + initial repaint to land.
	deadline := time.Now().Add(3 * time.Second)
	for con.Console.SessionID() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("console never attached over UDP")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := con.TypeString("udp works"); err != nil {
		t.Fatal(err)
	}
	// Wait until the glyphs arrive.
	deadline = time.Now().Add(3 * time.Second)
	for {
		applied, _ := con.Console.Counters()
		if applied >= 10 { // clear fill + 9 glyphs
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("echo never arrived (applied=%d)", applied)
		}
		time.Sleep(5 * time.Millisecond)
	}
	sess := srv.Server.SessionByUser("udpuser")
	// Let any in-flight datagrams settle, then compare screens.
	time.Sleep(50 * time.Millisecond)
	if !con.Console.Framebuffer().Equal(sess.Encoder.FB) {
		t.Error("UDP console diverged from server state")
	}
}

func TestUDPMobilityAcrossConsoles(t *testing.T) {
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-m", "mover")

	con1, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240}, TokenOf("card-m"))
	if err != nil {
		t.Fatal(err)
	}
	defer con1.Close()
	waitAttached(t, con1)
	if err := con1.TypeString("abc"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	before := con1.Console.Framebuffer().Snapshot()

	// Second console presents the same card: session moves.
	con2, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240}, TokenOf("card-m"))
	if err != nil {
		t.Fatal(err)
	}
	defer con2.Close()
	waitAttached(t, con2)
	time.Sleep(100 * time.Millisecond)
	if !con2.Console.Framebuffer().Equal(before) {
		t.Error("UDP mobility did not restore the screen")
	}
}

func waitAttached(t *testing.T, con *UDPConsole) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for con.Console.SessionID() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("console never attached")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLossRecoveryConvergence(t *testing.T) {
	fabric, srv := newFabricSystem(t)
	con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240, ReorderWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-l", con, srv)
	if err := fabric.Boot("desk-l", "card-alice"); err != nil {
		t.Fatal(err)
	}
	// Drop every 7th display datagram while typing several lines. Gaps
	// past the 2-datagram reorder window trigger Nacks; the server
	// repaints the losses from its frame buffer, synchronously on this
	// fabric.
	fabric.SetLoss(7)
	for line := 0; line < 12; line++ {
		if err := fabric.TypeString("desk-l", "packet loss is survivable!\n"); err != nil {
			t.Fatal(err)
		}
	}
	delivered, dropped := fabric.LossStats()
	if dropped == 0 {
		t.Fatal("loss injection inactive")
	}
	// Stop dropping, then push one more update so any trailing gap is
	// detected and recovered.
	fabric.SetLoss(0)
	if err := fabric.TypeString("desk-l", "tail\n"); err != nil {
		t.Fatal(err)
	}
	sess := srv.SessionByUser("alice")
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		t.Errorf("console did not converge after %d/%d datagrams dropped",
			dropped, delivered+dropped)
	}
}

func TestVideoAppOverFabric(t *testing.T) {
	fabric := NewFabric()
	src := NewQuakeSource(160, 120, 5)
	srv := NewServer(fabric, func(user string, w, h int) Application {
		return NewVideoApp(src, Rect{X: 0, Y: 0, W: 160, H: 120}, CSCS5, 25)
	})
	srv.Auth.Register("card-v", "viewer")
	con, err := NewConsole(ConsoleConfig{Width: 160, Height: 120})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-v", con, srv)
	if err := fabric.Boot("desk-v", "card-v"); err != nil {
		t.Fatal(err)
	}
	// Drive the application clock: one second of model time at 25 fps.
	for i := 0; i <= 25; i++ {
		if err := srv.Tick(time.Duration(i) * 40 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	sess := srv.SessionByUser("viewer")
	app := sess.App.(*VideoApp)
	if app.Frames() < 20 {
		t.Fatalf("rendered %d frames in 1s at 25fps", app.Frames())
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		t.Error("console diverged during video playback")
	}
	// Space pauses.
	if err := fabric.SendKey("desk-v", ' ', true); err != nil {
		t.Fatal(err)
	}
	before := app.Frames()
	if err := srv.Tick(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if app.Frames() != before {
		t.Error("paused player kept rendering")
	}
}

func TestUDPTickerStreamsVideo(t *testing.T) {
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", func(user string, w, h int) Application {
		return NewVideoApp(NewQuakeSource(120, 90, 7), Rect{W: 120, H: 90}, CSCS5, 60)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-t", "tv")
	srv.StartTicker(60)

	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 120, Height: 90}, TokenOf("card-t"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	waitAttached(t, con)
	deadline := time.Now().Add(5 * time.Second)
	for {
		applied, _ := con.Console.Counters()
		if applied >= 30 { // several frames of CSCS strips arrived
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("video never streamed over UDP (applied=%d)", applied)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDesktopAppOverFabric(t *testing.T) {
	fabric := NewFabric()
	srv := NewServer(fabric, WithDesktopApp())
	srv.Auth.Register("card-d", "desker")
	con, err := NewConsole(ConsoleConfig{Width: 800, Height: 600})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk", con, srv)
	if err := fabric.Boot("desk", "card-d"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Tick(0); err != nil { // initial desktop paint
		t.Fatal(err)
	}
	type_ := func(s string) {
		t.Helper()
		if err := fabric.TypeString("desk", s); err != nil {
			t.Fatal(err)
		}
	}
	type_("hello window one")
	if err := fabric.SendKey("desk", KeyNewWindow, true); err != nil {
		t.Fatal(err)
	}
	if err := fabric.SendKey("desk", KeyNewWindow, false); err != nil {
		t.Fatal(err)
	}
	type_("window two")
	if err := fabric.SendKey("desk", KeyNudgeRight, true); err != nil {
		t.Fatal(err)
	}
	sess := srv.SessionByUser("desker")
	app := sess.App.(*DesktopApp)
	if app.Windows() != 2 {
		t.Fatalf("windows = %d", app.Windows())
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		t.Error("console diverged from desktop session")
	}
	// The desktop survives hot-desking like everything else.
	con2, err := NewConsole(ConsoleConfig{Width: 800, Height: 600})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk2", con2, srv)
	if err := fabric.Boot("desk2", ""); err != nil {
		t.Fatal(err)
	}
	if err := fabric.InsertCard("desk2", "card-d"); err != nil {
		t.Fatal(err)
	}
	if !con2.Framebuffer().Equal(sess.Encoder.FB) {
		t.Error("desktop not restored after mobility")
	}
}

func TestUDPServerSurvivesGarbage(t *testing.T) {
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-g", "gina")

	// Blast junk at the daemon from a raw socket.
	raw, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	junk := [][]byte{
		{},
		{0x00},
		[]byte("GET / HTTP/1.1\r\n"),
		make([]byte, 32*1024), // large but under the UDP datagram cap
		{0x53, 0x4c, 0x01, 0xff, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff},
	}
	for _, j := range junk {
		if _, err := raw.Write(j); err != nil {
			t.Fatal(err)
		}
	}
	// Anyone can send a datagram: a thousand sources the handler accepts
	// nothing from — junk, and well-formed input from consoles that never
	// said Hello — must leave nothing behind in the routing table.
	key := protocol.Encode(nil, 0, &protocol.KeyEvent{Code: 'k', Down: true})
	for i := 0; i < 1000; i++ {
		stranger, err := net.Dial("udp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for _, wire := range [][]byte{junk[2], key} {
			if _, err := stranger.Write(wire); err != nil {
				t.Fatal(err)
			}
		}
		stranger.Close()
	}
	// The daemon must still serve a real console afterwards. A console's
	// Hello is sent once, so let the daemon drain what the kernel kept of
	// the blast first: a full receive buffer would drop the Hello, not test
	// the daemon.
	rx := Metrics().Counter("slim_udp_rx_datagrams_total")
	for read := int64(-1); rx.Value() != read; time.Sleep(20 * time.Millisecond) {
		read = rx.Value()
	}
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240}, TokenOf("card-g"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	waitAttached(t, con)
	if err := con.TypeString("still alive"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		applied, _ := con.Console.Counters()
		if applied > 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server unresponsive after garbage")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The socket is a queue: the console's echo came after every stranger.
	srv.addrMu.Lock()
	routes := len(srv.consoles)
	srv.addrMu.Unlock()
	if routes != 1 {
		t.Errorf("routing table holds %d sources, want only the console", routes)
	}
}

func TestPublicConstructors(t *testing.T) {
	if NewEncoder(10, 10) == nil || SunRay1Costs() == nil || NewTerminal(80, 64) == nil {
		t.Fatal("constructor returned nil")
	}
	p := RGB(1, 2, 3)
	if p.R() != 1 || p.G() != 2 || p.B() != 3 {
		t.Error("RGB re-export broken")
	}
	if CSCS5.BitsPerPixel() != 5 || CSCS16.BitsPerPixel() != 16 {
		t.Error("CSCS re-exports broken")
	}
}
