package slim

import (
	"sync/atomic"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
	"slim/internal/raceflag"
	"slim/internal/server"
	"slim/internal/workload"
)

// The server hands a burst-capable transport everything one call produced
// for a console at once, and the UDP endpoint packs it into §5.4 frames
// (udp.go SendBurst, protocol.PackFrame). The tests below hold that to the
// console's side of the contract — frames were always legal input, so a
// framed stream must paint what the plain stream paints and heal the same
// way — and pin what it buys on a live socket.

// Fabric stays per-datagram: harnesses that embed it (bench's fabricTap,
// slowTransport, meteredFabric) count and time traffic in Send, and a
// promoted SendBurst would route bursts around them.
func TestFabricIsNotABurstSender(t *testing.T) {
	if _, ok := Transport(NewFabric()).(server.BurstSender); ok {
		t.Fatal("*Fabric implements server.BurstSender")
	}
}

// scrollApp answers each key press with the next step of
// internal/workload's scroll drive — the bench's scroll_udp script: the
// 512x384 priming paint in one piece (a governed session owes what its
// token bucket cannot take and repays it from the frame buffer), then the bounce
// (a COPY of the body plus the 512x48 exposed strip).
type scrollApp struct {
	steps [][]Op
	next  int

	// A live test stores the session's encoder here; each key release
	// then publishes releases<<32 | the sequence the encoder has reached,
	// which is where the press before it ends (bench's benchApp does the
	// same).
	enc      atomic.Pointer[core.Encoder]
	releases uint32
	pub      atomic.Uint64
}

const scrollCycle = 24 // one bounce: the screen is back where it started

func newScrollApp(t *testing.T) *scrollApp {
	t.Helper()
	d, err := workload.NewDrive("scroll", 1)
	if err != nil {
		t.Fatal(err)
	}
	a := &scrollApp{}
	for i := 0; i <= scrollCycle; i++ {
		a.steps = append(a.steps, d.Step(i))
	}
	return a
}

func (a *scrollApp) HandleKey(ev protocol.KeyEvent) []Op {
	if !ev.Down {
		a.releases++
		var seq uint32
		if enc := a.enc.Load(); enc != nil {
			seq = enc.LastSeq()
		}
		a.pub.Store(uint64(a.releases)<<32 | uint64(seq))
		return nil
	}
	i := a.next
	if i >= len(a.steps) {
		i = 1 + (i-1)%scrollCycle
	}
	a.next++
	return a.steps[i]
}

func (a *scrollApp) HandlePointer(protocol.PointerEvent) []Op { return nil }

// wireTap records every datagram the server hands a plain Fabric.
type wireTap struct {
	*Fabric
	wires [][]byte
}

func (w *wireTap) Send(console string, wire []byte) error {
	w.wires = append(w.wires, append([]byte(nil), wire...))
	return w.Fabric.Send(console, wire)
}

// framedFabric is a Fabric behind the UDP endpoint's send path, each
// datagram delivered by Fabric.Send. drop, when set, is the one frame
// (counted from 1) that vanishes on the wire.
type framedFabric struct {
	*Fabric
	frames, drop int
}

func (f *framedFabric) SendBurst(console string, wires [][]byte) error {
	return packAndSend(wires, func(datagram []byte, commands int) error {
		if commands > 1 {
			if f.frames++; f.frames == f.drop {
				return nil
			}
		}
		return f.Fabric.Send(console, datagram)
	})
}

// TestFramedStreamPaintsWhatPlainPaints captures the plain wires of an
// attach and a scroll drive on a Fabric, packs each input's wires, and the
// wires of the pumps that paid what it left owed, as the UDP endpoint
// would, and replays the result into a fresh console through
// Console.HandleDatagram alone: same pixels, nothing dropped, no NACK.
// Neither console generation needed a change to read the new stream.
func TestFramedStreamPaintsWhatPlainPaints(t *testing.T) {
	for _, gen := range []struct {
		name string
		cfg  ConsoleConfig
	}{
		{"gen1", ConsoleConfig{Width: 640, Height: 480}},
		{"gen2", ConsoleConfig{Width: 640, Height: 480, TileCacheEntries: DefaultTileCacheEntries}},
	} {
		t.Run(gen.name, func(t *testing.T) {
			tap := &wireTap{Fabric: NewFabric()}
			app := newScrollApp(t)
			srv := NewServer(tap, func(string, int, int) Application { return app }, WithTelemetry(NewTelemetry()))
			srv.Auth.Register("card-alice", "alice")
			live, err := NewConsole(gen.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tap.Attach("desk-1", live, srv)
			// len(tap.wires) after each input, and after the pumps that
			// paid what it left owed
			var bursts []int
			if err := tap.Boot("desk-1", "card-alice"); err != nil {
				t.Fatal(err)
			}
			bursts = append(bursts, len(tap.wires))
			settle(t, tap.Fabric, srv, "alice")
			bursts = append(bursts, len(tap.wires))
			for i := 0; i < 1+2*scrollCycle; i++ {
				if err := tap.SendKey("desk-1", 'j', true); err != nil {
					t.Fatal(err)
				}
				bursts = append(bursts, len(tap.wires))
				settle(t, tap.Fabric, srv, "alice")
				bursts = append(bursts, len(tap.wires))
			}
			sess := srv.SessionByUser("alice")
			if !live.Framebuffer().Equal(sess.Encoder.FB) {
				t.Fatal("the plain stream itself diverged")
			}

			replayed, err := NewConsole(gen.cfg)
			if err != nil {
				t.Fatal(err)
			}
			frames, datagrams, from := 0, 0, 0
			for _, to := range bursts {
				err := packAndSend(tap.wires[from:to], func(datagram []byte, commands int) error {
					datagrams++
					if commands > 1 {
						frames++
					}
					replies, err := replayed.HandleDatagram(datagram, 0)
					for _, r := range replies {
						if _, msg, _, _ := protocol.Decode(r); msg.Type() == protocol.TypeNack {
							t.Fatalf("datagram %d drew a NACK: %+v", datagrams, msg)
						}
					}
					return err
				})
				if err != nil {
					t.Fatalf("by datagram %d: %v", datagrams, err)
				}
				from = to
			}
			t.Logf("%d plain wires replayed as %d datagrams, %d of them frames", len(tap.wires), datagrams, frames)
			if frames == 0 {
				t.Fatal("nothing was framed")
			}
			if !replayed.Framebuffer().Equal(sess.Encoder.FB) {
				n, _ := replayed.Framebuffer().DiffPixels(sess.Encoder.FB)
				t.Errorf("framed replay differs from the session's frame buffer in %d pixels", n)
			}
			applied, dropped := replayed.Counters()
			if liveApplied, _ := live.Counters(); applied != liveApplied || dropped != 0 {
				t.Errorf("framed replay applied %d commands and dropped %d; the plain stream applied %d", applied, dropped, liveApplied)
			}
		})
	}
}

// TestLostFrameHealsByOneNack: a frame is the unit of loss. One warmed
// scroll step's first frame (70 commands) vanishes; the console reports
// the hole as one NACK range and the server heals it from its frame
// buffer with no more than a repaint's worth of commands.
func TestLostFrameHealsByOneNack(t *testing.T) {
	kit := NewTelemetry()
	ff := &framedFabric{Fabric: NewFabric()}
	app := newScrollApp(t)
	srv := NewServer(ff, func(string, int, int) Application { return app }, WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")
	con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, TileCacheEntries: DefaultTileCacheEntries, Obs: kit.Registry})
	if err != nil {
		t.Fatal(err)
	}
	ff.Attach("desk-1", con, srv)
	if err := ff.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	settle(t, ff.Fabric, srv, "alice")
	sess := srv.SessionByUser("alice")
	for i := 0; i < 1+scrollCycle; i++ {
		if err := ff.SendKey("desk-1", 'j', true); err != nil {
			t.Fatal(err)
		}
		settle(t, ff.Fabric, srv, "alice")
	}
	nacks := kit.Registry.Counter("slim_console_nacks_total")
	if !con.Framebuffer().Equal(sess.Encoder.FB) || nacks.Value() != 0 {
		t.Fatalf("warm-up over a loss-free framed fabric: %d NACKs, frame buffers equal=%v",
			nacks.Value(), con.Framebuffer().Equal(sess.Encoder.FB))
	}

	before := sess.Encoder.LastSeq()
	ff.drop = ff.frames + 1
	if err := ff.SendKey("desk-1", 'j', true); err != nil {
		t.Fatal(err)
	}
	if ff.frames < ff.drop {
		t.Fatal("the step sent no frame to lose")
	}
	if got := nacks.Value(); got != 1 {
		t.Errorf("one lost frame drew %d NACKs, want 1", got)
	}
	settle(t, ff.Fabric, srv, "alice")
	// A full repaint is one of the screen the loss was healed on.
	dgs := freshRepaint(sess.Encoder.FB, true)
	if sent, repaint := int(sess.Encoder.LastSeq()-before), len(dgs); sent > 97+repaint {
		t.Errorf("step and recovery sent %d commands; a step is 97 and a full repaint %d", sent, repaint)
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
		t.Errorf("console differs from the session's frame buffer in %d pixels after recovery", n)
	}
}

// udpTx reads the UDP daemon's cumulative send counters (process-wide, so
// callers work with differences).
func udpTx() (datagrams, bytes int64) {
	m := Metrics()
	return m.Counter("slim_udp_tx_datagrams_total").Value(), m.Counter("slim_udp_tx_bytes_total").Value()
}

// shippedConsole is the gen-2 console slimview dials, the one slimd's
// profile (every server's defaults) is measured with.
func shippedConsole(w, h int) ConsoleConfig {
	return ConsoleConfig{Width: w, Height: h, TileCacheEntries: DefaultTileCacheEntries}
}

// TestUDPAttachDatagramBudget: a gen-2 attach is a fresh repaint of the
// session's screen — on a blank 1280×1024 screen one FILL per tile row —
// and the endpoint packs its display commands into §5.4 frames, so the
// attach leaves in the datagrams the packed repaint needs plus its three
// control messages: SessionAttach, BandwidthRequest and HelloAck. (One
// datagram per command, a 5,120-tile attach overran a default socket
// buffer, about 270 datagrams, before the reader woke.)
func TestUDPAttachDatagramBudget(t *testing.T) {
	cfg := shippedConsole(1280, 1024)
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-a", "attach")
	datagrams0, _ := udpTx()
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), cfg, TokenOf("card-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	waitAttached(t, con)
	settledSeq(t, con, 0)
	datagrams, _ := udpTx()
	sess := srv.Server.SessionByUser("attach") // the lock orders this after the repaint
	repaint := freshRepaint(sess.Encoder.FB, true)
	wires := make([][]byte, len(repaint))
	for i := range repaint {
		wires[i] = repaint[i].Wire
	}
	frames := 0
	_ = packAndSend(wires, func([]byte, int) error { frames++; return nil })
	applied, dropped := con.Console.Counters()
	t.Logf("attach: %d commands in %d datagrams", applied, datagrams-datagrams0)
	if applied < uint64(len(repaint)) || dropped != 0 {
		t.Errorf("console applied %d commands and dropped %d, want the %d-command repaint", applied, dropped, len(repaint))
	}
	if sent := datagrams - datagrams0; sent > int64(frames)+3 {
		t.Errorf("attach sent %d datagrams, want the repaint's %d and 3 control messages", sent, frames)
	}
	if !con.Console.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := con.Console.Framebuffer().DiffPixels(sess.Encoder.FB)
		t.Errorf("console differs from the session's frame buffer in %d pixels", n)
	}
}

// TestFabricAttachIsOneFillPerRow: a gen-2 attach to a blank 640×480
// screen sends one FILL per tile row, 30 display commands, where claiming
// each repeat of the blank tile sent 1,200.
func TestFabricAttachIsOneFillPerRow(t *testing.T) {
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp())
	srv.Auth.Register("card-alice", "alice")
	con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, TileCacheEntries: DefaultTileCacheEntries})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	sess := srv.SessionByUser("alice")
	applied, dropped := con.Counters()
	if sent := sess.Encoder.LastSeq(); sent != 30 || applied != 30 || dropped != 0 {
		t.Errorf("the attach sent %d display commands, the console applied %d and dropped %d; want 30 FILLs", sent, applied, dropped)
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		t.Error("the console differs from the session's frame buffer")
	}
}

// TestUDPScrollStep: one warmed scroll step — a COPY and 96 cache hits,
// 2,712 B as 97 plain datagrams — leaves in two. The live capture of it
// still reads as 97 commands in the Tables 2-3 rows. The 600 KB priming
// paint goes in one piece: the governor owes what its bucket cannot take.
// So is every step's strip (its bound is more than a bucket admits), and
// is repaid from the frame buffer, so a step ends when nothing is owed,
// not at its key release: on a loaded host a repayment, or a loss's,
// could still be running then, and spilled into the next step.
func TestUDPScrollStep(t *testing.T) {
	cfg := shippedConsole(640, 480)
	// A lost tail heals by an idle heartbeat's repaint under fresh numbers,
	// which carry the console past the hole only once more than its reorder
	// window have arrived: at the default 64 that is some twenty heartbeats.
	cfg.ReorderWindow = 1
	app := newScrollApp(t)
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0",
		func(string, int, int) Application { return app })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-s", "scroll")
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), cfg, TokenOf("card-s"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	waitAttached(t, con)
	app.enc.Store(srv.Server.SessionByUser("scroll").Encoder)
	// released waits until the app has seen a key release since the
	// count of releases was rel, and returns what it published.
	deadline := time.Now().Add(20 * time.Second)
	released := func(rel uint64) uint64 {
		t.Helper()
		for ; time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if p := app.pub.Load(); p>>32 != rel {
				return p
			}
		}
		t.Fatal("the key release never reached the app")
		return 0
	}
	// step scrolls once and returns the sequence number the step ended
	// at, once nothing is owed and the console has painted up to it: a
	// bare key release, sent once the debt is paid, publishes where the
	// encoder stands.
	step := func() uint32 {
		t.Helper()
		p := app.pub.Load()
		if err := con.TypeString("j"); err != nil {
			t.Fatal(err)
		}
		p = released(p >> 32)
		for ; srv.Server.Owed("scroll") != nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the step's debt was never paid")
			}
		}
		if err := con.SendKey('j', false); err != nil {
			t.Fatal(err)
		}
		for p = released(p >> 32); int32(con.Console.Status().LastSeq-uint32(p)) < 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the console never painted the step")
			}
		}
		return uint32(p)
	}
	seq := step()
	for i := 0; i < scrollCycle; i++ {
		seq = step()
	}

	// A race-built console loses some of the warm-up's literal strips in
	// its default receive buffer, and their repair can spill into the next
	// steps; there the warmed step is the first that is nothing but itself.
	ring := Capture()
	var datagrams0, bytes0, datagrams, bytes int64
	for retry := 0; ; retry++ {
		ring.Drain()
		ring.SetEnabled(true)
		datagrams0, bytes0 = udpTx()
		warmed := seq
		seq = step()
		datagrams, bytes = udpTx()
		ring.SetEnabled(false)
		if seq-warmed == 97 {
			break
		}
		if !raceflag.Enabled || retry == scrollCycle {
			t.Fatalf("the warmed step was %d commands, want 97 (COPY + 96 CACHE_PAINT)", seq-warmed)
		}
	}
	if n, b := datagrams-datagrams0, bytes-bytes0; n > 3 || b >= 2000 {
		t.Errorf("the step left in %d datagrams, %d B; want at most 3 and under 2,000", n, b)
	}
	rep := capture.BuildReport(capture.Header{}, ring.Drain())
	rows := map[string]capture.Row{}
	for _, r := range rep.Down {
		rows[r.Label] = r
	}
	if cp, cpy := rows[protocol.TypeCachePaint.String()], rows[protocol.TypeCopy.String()]; cp.Count != 96 || cp.Bytes != 96*28 || cpy.Count != 1 || rep.Undecoded != 0 {
		t.Errorf("captured step reads as %d CACHE_PAINT (%d B), %d COPY, %d undecoded: %+v",
			cp.Count, cp.Bytes, cpy.Count, rep.Undecoded, rep.Down)
	}
	if _, dropped := con.Console.Counters(); dropped != 0 {
		t.Errorf("console dropped %d commands", dropped)
	}
}

// TestFailedFrameWriteDropsEveryMember: a frame the socket refuses is the
// loss of every command in it, and each one's chain must say so — TX, then
// DROP — or a breach dump shows commands that left and never arrived with
// nothing in between.
func TestFailedFrameWriteDropsEveryMember(t *testing.T) {
	kit := NewTelemetry()
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0",
		func(string, int, int) Application { return &burstApp{} }, WithTelemetry(kit))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-f", "fail")
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240}, TokenOf("card-f"))
	if err != nil {
		t.Fatal(err)
	}
	defer con.Close()
	waitAttached(t, con)
	seq := settledSeq(t, con, 0)
	time.Sleep(2 * StatusAckDelay) // the repaint's trailing ack has been read

	// Every write fails from here on; the serve loop exits on the same
	// error, so the burst below is the only thing using the server.
	srv.conn.Close()
	desk := con.conn.LocalAddr().String()
	if err := srv.Server.Handle(desk, &protocol.KeyEvent{Code: 'b', Down: true}, kit.Clock.Now()); err == nil {
		t.Fatal("a burst onto a closed socket reported no error")
	}
	sess := srv.Server.SessionByUser("fail")
	chain := map[uint32][]flight.Kind{}
	for _, ev := range kit.Flight.Events(sess.ID, 0) {
		if (ev.Kind == flight.EvTx || ev.Kind == flight.EvDrop) && ev.Seq > seq {
			chain[ev.Seq] = append(chain[ev.Seq], ev.Kind)
		}
	}
	if len(chain) != burstLen {
		t.Fatalf("flight ring holds TX/DROP for %d of the burst's %d commands", len(chain), burstLen)
	}
	for s, kinds := range chain {
		if len(kinds) != 2 || kinds[0] != flight.EvTx || kinds[1] != flight.EvDrop {
			t.Fatalf("seq %d: chain %v, want TX then DROP", s, kinds)
		}
	}
}
