package slim

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/protocol"
	"slim/internal/server"
)

// Recovery is one owed region (server.Session's damage), paid from the
// frame buffer at the grant's pace. These sim-domain tests drive it through
// a Fabric that loses only what they tell it to.

// pumpQuiet advances the fabric's clock in steps, pumping, until the
// session has owed and encoded nothing for quiet of virtual time, and
// reports the most its token bucket was seen overdrawn by, in bytes.
func pumpQuiet(t *testing.T, fabric *Fabric, srv *Server, sess *Session, step, quiet time.Duration) (overdrawn int) {
	t.Helper()
	quietSince, steps := fabric.Now(), 0
	for last := sess.Encoder.LastSeq(); fabric.Now()-quietSince < quiet; steps++ {
		if steps > 100_000 {
			t.Fatalf("still sending after %v of virtual time (%d commands)", fabric.Now(), sess.Encoder.LastSeq())
		}
		fabric.SetClock(fabric.Now() + step)
		if err := fabric.Pump(); err != nil {
			t.Fatal(err)
		}
		if gov := sess.Governor(); gov != nil {
			overdrawn = max(overdrawn, -gov.Tokens(fabric.Now()))
		}
		if sess.Encoder.LastSeq() != last || srv.Owed(sess.User) != nil {
			last, quietSince = sess.Encoder.LastSeq(), fabric.Now()
		}
	}
	return overdrawn
}

// TestHotdeskUnderGrantIsPaced: a session that hotdesks keeps its grant, so
// the new console's repaint — 900 KB of noise at 640×480, 1 Mbit/s — is
// owed and paid a piece at a time, each cut to the tokens the bucket holds.
// The console never has a gap to NACK, and the bucket is never overdrawn by
// more than a burst.
// (Queued in one piece, most of the repaint was evicted on the spot and
// healed NACK by NACK.)
func TestHotdeskUnderGrantIsPaced(t *testing.T) {
	kit := NewTelemetry()
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp(), WithFlowControl(FlowConfig{}), WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")
	consoles := obs.NewRegistry(obs.DomainWall)
	desk := func(id string) *Console {
		con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, TotalBps: 1_000_000, Obs: consoles})
		if err != nil {
			t.Fatal(err)
		}
		fabric.Attach(id, con, srv)
		if err := fabric.Boot(id, "card-alice"); err != nil {
			t.Fatal(err)
		}
		return con
	}
	desk("desk-1")
	sess := srv.SessionByUser("alice")
	if sess.Governor().Grant() != 1_000_000 {
		t.Fatalf("the first console granted %d bit/s, want its whole 1 Mbit/s", sess.Governor().Grant())
	}
	rng := rand.New(rand.NewSource(19))
	for i := range sess.Encoder.FB.Pix {
		sess.Encoder.FB.Pix[i] = Pixel(rng.Uint32() & 0xffffff)
	}
	con := desk("desk-2")
	if con.Framebuffer().Equal(sess.Encoder.FB) {
		t.Fatal("the hotdesk repaint arrived in the attach call; nothing was paced")
	}
	overdrawn := pumpQuiet(t, fabric, srv, sess, 20*time.Millisecond, time.Second)
	if burst := sess.Governor().Config().BurstBytes; overdrawn > burst {
		t.Errorf("the bucket was overdrawn by %d bytes, more than a burst of %d", overdrawn, burst)
	}
	if n := consoles.Counter("slim_console_nacks_total").Value(); n != 0 {
		t.Errorf("the consoles sent %d NACKs on a fabric that drops nothing", n)
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
		t.Errorf("console differs from the session's frame buffer in %d pixels after the debt was paid", n)
	}
}

// TestRestoredScreenIsPaced: a governor paces from its first byte, so a
// screen that arrives with its session — imported from another server,
// loaded from a state file, or migrated by a broker — is owed at attach
// and paid at the grant's pace like a hotdesk's. The restored 640×480 of
// noise (900 KB) leaves at most one burst in the call that attaches it,
// and once the debt is paid the console, which never had a gap to NACK,
// is pixel-equal to the session. (Before, the governor let everything
// through until the console's first grant, and the attach call sent all
// 940,800 B on a 1 Mbit/s console.)
func TestRestoredScreenIsPaced(t *testing.T) {
	const w, h = 640, 480
	// noisy returns a snapshot of alice's session painted with noise, and
	// the state file of the server it was taken from.
	noisy := func(t *testing.T) (*server.SessionSnapshot, *bytes.Buffer) {
		fabric := NewFabric()
		src := NewServer(fabric, WithTerminalApp(), WithTelemetry(NewTelemetry()))
		src.Auth.Register("card-alice", "alice")
		con, err := NewConsole(ConsoleConfig{Width: w, Height: h})
		if err != nil {
			t.Fatal(err)
		}
		fabric.Attach("desk-0", con, src)
		if err := fabric.Boot("desk-0", "card-alice"); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(37))
		for i, pix := 0, src.SessionByUser("alice").Encoder.FB.Pix; i < len(pix); i++ {
			pix[i] = Pixel(rng.Uint32() & 0xffffff)
		}
		var state bytes.Buffer
		if err := src.SaveSessions(&state); err != nil {
			t.Fatal(err)
		}
		sn, err := src.ExportSession("alice")
		if err != nil {
			t.Fatal(err)
		}
		return sn, &state
	}
	// desk boots a 1 Mbit/s console at a fabric desk without a card.
	desk := func(t *testing.T, fabric *Fabric, srv SessionHandler, reg *obs.Registry) *Console {
		con, err := NewConsole(ConsoleConfig{Width: w, Height: h, TotalBps: 1_000_000, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		fabric.Attach("desk-1", con, srv)
		return con
	}
	// paced checks the attach that just returned, then pays the debt.
	paced := func(t *testing.T, fabric *Fabric, srv *Server, con *Console, reg *obs.Registry) {
		sess := srv.SessionByUser("alice")
		sent, _ := sess.Governor().PacedBytes()
		if burst := sess.Governor().Config().BurstBytes; sent > int64(burst) {
			t.Errorf("the attach call sent %d bytes of the restored screen, more than a burst of %d", sent, burst)
		}
		pumpQuiet(t, fabric, srv, sess, 20*time.Millisecond, time.Second)
		if n := reg.Counter("slim_console_nacks_total").Value(); n != 0 {
			t.Errorf("the console sent %d NACKs on a fabric that drops nothing", n)
		}
		if !con.Framebuffer().Equal(sess.Encoder.FB) {
			n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
			t.Errorf("console differs from the restored frame buffer in %d pixels after the debt was paid", n)
		}
	}
	restore := map[string]func(*Server, *server.SessionSnapshot, *bytes.Buffer) error{
		"ImportSession": func(s *Server, sn *server.SessionSnapshot, _ *bytes.Buffer) error { return s.ImportSession(sn) },
		"LoadSessions":  func(s *Server, _ *server.SessionSnapshot, state *bytes.Buffer) error { return s.LoadSessions(state) },
	}
	for _, name := range []string{"ImportSession", "LoadSessions"} {
		t.Run(name, func(t *testing.T) {
			sn, state := noisy(t)
			fabric, reg := NewFabric(), obs.NewRegistry(obs.DomainWall)
			srv := NewServer(fabric, WithTerminalApp(), WithFlowControl(FlowConfig{}), WithTelemetry(NewTelemetry()))
			srv.Auth.Register("card-alice", "alice")
			if err := restore[name](srv, sn, state); err != nil {
				t.Fatal(err)
			}
			con := desk(t, fabric, srv, reg)
			if err := fabric.Boot("desk-1", "card-alice"); err != nil {
				t.Fatal(err)
			}
			paced(t, fabric, srv, con, reg)
		})
	}
	t.Run("MigrateUser", func(t *testing.T) {
		fabric, reg := NewFabric(), obs.NewRegistry(obs.DomainWall)
		b, err := NewBroker(context.Background(), BrokerConfig{Shards: 2}, fabric,
			WithTerminalApp(), WithFlowControl(FlowConfig{}), WithTelemetry(NewTelemetry()))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		b.Register(TokenOf("card-alice"), "alice")
		con := desk(t, fabric, b, reg)
		if err := fabric.Boot("desk-1", "card-alice"); err != nil {
			t.Fatal(err)
		}
		home, _ := b.Locate("alice")
		pumpQuiet(t, fabric, b.Shard(home), b.SessionByUser("alice"), 20*time.Millisecond, time.Second)
		rng := rand.New(rand.NewSource(37))
		for i, pix := 0, b.SessionByUser("alice").Encoder.FB.Pix; i < len(pix); i++ {
			pix[i] = Pixel(rng.Uint32() & 0xffffff)
		}
		if err := b.MigrateUser("alice", 1-home, fabric.Now()); err != nil {
			t.Fatal(err)
		}
		paced(t, fabric, b.Shard(1-home), con, reg)
	})
}

// TestZeroGrantNeitherFloodsNorWedges: a console with nothing left to give
// grants a zero fair share (§7), and the session it shows is paced at
// flow.MinGrantBps: a 900 KB recovery repaint is owed, not sent in the
// call that owed it, and is paid, a kilobyte a second, to pixel equality.
// (A zero grant used to lift pacing altogether.)
func TestZeroGrantNeitherFloodsNorWedges(t *testing.T) {
	fabric, reg := NewFabric(), obs.NewRegistry(obs.DomainWall)
	srv := NewServer(fabric, WithTerminalApp(), WithFlowControl(FlowConfig{}), WithTelemetry(NewTelemetry()))
	srv.Auth.Register("card-alice", "alice")
	con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, TotalBps: 1_000_000, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	sess := srv.SessionByUser("alice")
	// A session on another server asks the console for its whole link.
	// It asks less than alice's demand, so the allocator grants it first
	// and alice's share of what is left is 0.
	replies, err := con.Handle(0, &protocol.BandwidthRequest{SessionID: 1<<24 + 1, Bps: 1_000_000}, fabric.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range replies {
		if err := srv.HandleDatagram("desk-1", wire, fabric.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if got := sess.Governor().Grant(); got != 0 {
		t.Fatalf("alice was granted %d bit/s, want the zero share", got)
	}
	rng := rand.New(rand.NewSource(41))
	for i := range sess.Encoder.FB.Pix {
		sess.Encoder.FB.Pix[i] = Pixel(rng.Uint32() & 0xffffff)
	}
	// On a quiet line, the console reports it holds nothing.
	fabric.SetClock(fabric.Now() + time.Second)
	before, _ := sess.Governor().PacedBytes()
	if err := srv.Handle("desk-1", &protocol.Status{}, fabric.Now()); err != nil {
		t.Fatal(err)
	}
	sent, _ := sess.Governor().PacedBytes()
	if burst := sess.Governor().Config().BurstBytes; sent-before > int64(burst) {
		t.Errorf("the zero-granted repaint sent %d bytes at once, more than a burst of %d", sent-before, burst)
	}
	pumpQuiet(t, fabric, srv, sess, time.Second, 5*time.Second)
	if got := sess.Governor().Grant(); got != 0 {
		t.Errorf("the grant moved to %d bit/s while the debt was paid; the floor was not what paid it", got)
	}
	if n := reg.Counter("slim_console_nacks_total").Value(); n != 0 {
		t.Errorf("the console sent %d NACKs on a fabric that drops nothing", n)
	}
	if !con.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
		t.Errorf("console differs from the session's frame buffer in %d pixels after the debt was paid", n)
	}
}

// TestHotdeskLeavesNoStaleGrant: a console forgets a session that left it,
// and a grant counts only from the console showing its session. Alice
// hotdesks from x, a 100 Mbit/s console, to y, a 10 Mbit/s one; then bob
// badges in at x. x grants bob his whole demand, not what is left beside
// alice's old request, and the grant x would have re-issued for alice does
// not pace her past y's link. (Before, bob got 15.4 Mbit/s of his 84.6 and
// alice was paced at 84.6 Mbit/s on y's 10.)
func TestHotdeskLeavesNoStaleGrant(t *testing.T) {
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp(), WithFlowControl(FlowConfig{}), WithTelemetry(NewTelemetry()))
	srv.Auth.Register("card-alice", "alice")
	srv.Auth.Register("card-bob", "bob")
	for id, bps := range map[string]uint64{"x": 100_000_000, "y": 10_000_000} {
		con, err := NewConsole(ConsoleConfig{Width: 64, Height: 48, TotalBps: bps})
		if err != nil {
			t.Fatal(err)
		}
		fabric.Attach(id, con, srv)
	}
	for _, badge := range []struct{ desk, card string }{{"x", "card-alice"}, {"y", "card-alice"}, {"x", "card-bob"}} {
		if err := fabric.Boot(badge.desk, badge.card); err != nil {
			t.Fatal(err)
		}
	}
	demand := flow.DefaultDemandBps()
	alice, bob := srv.SessionByUser("alice").Governor().Grant(), srv.SessionByUser("bob").Governor().Grant()
	if bob != demand || alice != 10_000_000 {
		t.Errorf("bob at x: grant %d of demand %d; alice at y (10 Mbit/s console): grant %d", bob, demand, alice)
	}
}

// TestLostTailHealsThroughHeartbeat: a loss no later datagram pushes past
// the reorder window heals through the heartbeat in at most two rounds. A
// lost tail leaves no gap to NACK: the first quiet heartbeat trails the
// last sequence sent and is answered by region, under fresh numbers. That
// leaves a hole below the console's highest arrival, and its next poll —
// nothing having arrived for a StatusInterval — settles the hole with a
// NACK and stops trailing. A lost middle settles at the first. Either way
// the console's STATUS stops trailing within two heartbeats, the heal costs
// at most twice the lost commands, and later heartbeats draw nothing.
// (While the console left such holes open, every quiet heartbeat re-owed
// the same tail until ReorderWindow more datagrams arrived: one lost echo
// cost about 60 repaints.)
func TestLostTailHealsThroughHeartbeat(t *testing.T) {
	for _, c := range []struct {
		name            string
		lost, delivered string // typed with every display datagram lost, then without loss
	}{{"tail", "!", ""}, {"long-tail", "0123456789", ""}, {"middle", "!", "abcd"}} {
		t.Run(c.name, func(t *testing.T) {
			fabric, srv := newFabricSystem(t)
			con := attachConsole(t, fabric, srv, "desk-1", "card-alice")
			if err := fabric.TypeString("desk-1", "tail"); err != nil {
				t.Fatal(err)
			}
			sess := srv.SessionByUser("alice")
			before := sess.Encoder.LastSeq()
			fabric.SetLoss(1)
			if err := fabric.TypeString("desk-1", c.lost); err != nil {
				t.Fatal(err)
			}
			fabric.SetLoss(0)
			lost := sess.Encoder.LastSeq() - before
			if err := fabric.TypeString("desk-1", c.delivered); err != nil {
				t.Fatal(err)
			}
			if con.Framebuffer().Equal(sess.Encoder.FB) {
				t.Fatal("the echo arrived; nothing was lost")
			}
			sent := sess.Encoder.LastSeq()
			tick := func() {
				t.Helper()
				fabric.SetClock(fabric.Now() + StatusInterval)
				if err := fabric.Pump(); err != nil {
					t.Fatal(err)
				}
			}
			tick()
			tick()
			if got, last := con.Status().LastSeq, sess.Encoder.LastSeq(); got != last {
				t.Errorf("after two heartbeats the console's STATUS reports %d of %d", got, last)
			}
			if cost := sess.Encoder.LastSeq() - sent; cost == 0 || cost > 2*lost {
				t.Errorf("%d lost commands cost %d to heal, want 1 to %d", lost, cost, 2*lost)
			}
			if !con.Framebuffer().Equal(sess.Encoder.FB) {
				n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
				t.Errorf("console differs from the session's frame buffer in %d pixels after two heartbeats", n)
			}
			healed := sess.Encoder.LastSeq()
			for i := 0; i < 10; i++ {
				tick()
			}
			if more := sess.Encoder.LastSeq() - healed; more != 0 {
				t.Errorf("ten heartbeats after the heal drew %d more commands", more)
			}
		})
	}
}

// scriptApp answers each key press with the next op of a script.
type scriptApp struct{ ops []Op }

func (a *scriptApp) HandleKey(ev protocol.KeyEvent) []Op {
	if !ev.Down || len(a.ops) == 0 {
		return nil
	}
	op := a.ops[0]
	a.ops = a.ops[1:]
	return []Op{op}
}

func (a *scriptApp) HandlePointer(protocol.PointerEvent) []Op { return nil }

// TestDebtConvergesUnderAnyGrant is the property the owed region must keep:
// however late it is paid — a grant of one byte a second, or a gigabit —
// and whatever is painted meanwhile, the console ends pixel-equal. Random
// FILL, COPY and BITMAP ops are interleaved with NACKs for ranges the
// console never lost (so the debt is real to the server and the pixels are
// not) and with pumps, on a fabric that drops nothing. A COPY that reads
// owed pixels is the case that needs care: what it writes is owed too.
func TestDebtConvergesUnderAnyGrant(t *testing.T) {
	const w, h = 160, 128
	rect := func(rng *rand.Rand) Rect {
		r := Rect{W: 1 + rng.Intn(w/2), H: 1 + rng.Intn(h/2)}
		r.X, r.Y = rng.Intn(w-r.W+1), rng.Intn(h-r.H+1)
		return r
	}
	// A one-byte bucket makes the slow grant bite from the first command:
	// one leaves per refill, the rest are owed.
	for _, grant := range []struct {
		bps   uint64
		burst int
		step  time.Duration // the clock moves up to this much between events
	}{{8, 1, 2 * time.Hour}, {1_000_000_000, 0, 40 * time.Millisecond}} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			app := &scriptApp{}
			fabric := NewFabric()
			srv := NewServer(fabric, func(string, int, int) Application { return app },
				WithFlowControl(FlowConfig{BurstBytes: grant.burst}), WithTelemetry(NewTelemetry()))
			srv.Auth.Register("card-alice", "alice")
			con, err := NewConsole(ConsoleConfig{Width: w, Height: h, TotalBps: grant.bps})
			if err != nil {
				t.Fatal(err)
			}
			fabric.Attach("desk-1", con, srv)
			if err := fabric.Boot("desk-1", "card-alice"); err != nil {
				t.Fatal(err)
			}
			sess := srv.SessionByUser("alice")
			if got := sess.Governor().Grant(); got == 0 || got > grant.bps {
				t.Fatalf("granted %d bit/s of the console's %d; nothing is paced", got, grant.bps)
			}
			for i := 0; i < 200; i++ {
				switch k := rng.Intn(10); {
				case k < 1:
					app.ops = append(app.ops, FillOp{Rect: rect(rng), Color: Pixel(rng.Uint32() & 0xffffff)})
				case k < 2:
					r := rect(rng)
					bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
					rng.Read(bits)
					app.ops = append(app.ops, TextOp{Rect: r, Fg: Pixel(rng.Uint32() & 0xffffff), Bits: bits})
				case k < 4:
					r := rect(rng)
					dx, dy := rng.Intn(w-r.W+1)-r.X, rng.Intn(h-r.H+1)-r.Y
					if dx == 0 && dy == 0 {
						continue
					}
					app.ops = append(app.ops, ScrollOp{Rect: r, DX: dx, DY: dy})
				case k < 5:
					last := sess.Encoder.LastSeq()
					from := 1 + uint32(rng.Intn(int(last)))
					nack := &protocol.Nack{From: from, To: min(last, from+uint32(rng.Intn(6)))}
					if err := srv.Handle("desk-1", nack, fabric.Now()); err != nil {
						t.Fatal(err)
					}
					continue
				case k < 6:
					fabric.SetLoss([]int{0, 0, 2, 3, 5}[rng.Intn(5)])
					continue
				default:
					fabric.SetClock(fabric.Now() + time.Duration(rng.Int63n(int64(grant.step))))
					if err := fabric.Pump(); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := fabric.SendKey("desk-1", 'k', true); err != nil {
					t.Fatal(err)
				}
			}
			fabric.SetLoss(0)
			pumpQuiet(t, fabric, srv, sess, grant.step, 4*grant.step+2*StatusInterval)
			if !con.Framebuffer().Equal(sess.Encoder.FB) {
				n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
				t.Errorf("grant %d bit/s, seed %d: console differs in %d pixels after %d commands",
					grant.bps, seed, n, sess.Encoder.LastSeq())
			}
		}
	}
}

// TestAdmissionConvergesProperty is the property admission must keep.
// Random mixes of image, text, fill, scroll and video ops, under random
// grants and bursts on both codec generations, are painted through a
// fabric that drops nothing, so every debt is a paint the grant could not
// take now and every COPY over one is the case that needs care. At every
// quiet point the console is pixel-equal, sent no NACK, and is owed
// nothing. Two region rules carry it. A COPY whose source is owed is owed
// itself: sent, it would copy the console's stale pixels, and the frame
// buffers would differ. An admitted pure write pays what it paints over:
// without that a fresh frame would leave its own rect owed, checked after
// every such op.
func TestAdmissionConvergesProperty(t *testing.T) {
	const w, h = 128, 96
	rect := func(rng *rand.Rand) Rect {
		r := Rect{W: 1 + rng.Intn(w), H: 1 + rng.Intn(h)}
		r.X, r.Y = rng.Intn(w-r.W+1), rng.Intn(h-r.H+1)
		return r
	}
	noise := func(rng *rand.Rand, n int) []Pixel {
		pix := make([]Pixel, n)
		for i := range pix {
			pix[i] = Pixel(rng.Uint32() & 0xffffff)
		}
		return pix
	}
	randomOp := func(rng *rand.Rand) Op {
		switch k := rng.Intn(10); {
		case k < 3:
			r := rect(rng)
			return ImageOp{Rect: r, Pixels: noise(rng, r.Pixels())}
		case k < 4:
			r := rect(rng)
			bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
			rng.Read(bits)
			return TextOp{Rect: r, Fg: Pixel(rng.Uint32() & 0xffffff), Bits: bits}
		case k < 5:
			return FillOp{Rect: rect(rng), Color: Pixel(rng.Uint32() & 0xffffff)}
		case k < 8:
			r := rect(rng)
			if dx, dy := rng.Intn(w-r.W+1)-r.X, rng.Intn(h-r.H+1)-r.Y; dx != 0 || dy != 0 {
				return ScrollOp{Rect: r, DX: dx, DY: dy}
			}
			return FillOp{Rect: r}
		default:
			scale := 1 + rng.Intn(2)
			src := Rect{W: 2 * (1 + rng.Intn(w/4)), H: 2 * (1 + rng.Intn(h/4))}
			dst := Rect{W: scale * src.W, H: scale * src.H}
			dst.X, dst.Y = rng.Intn(w-dst.W+1), rng.Intn(h-dst.H+1)
			return VideoOp{Src: src, Dst: dst, Format: CSCSFormat(rng.Intn(3)), Pixels: noise(rng, src.Pixels())}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bps := []uint64{64_000, 1_000_000, 20_000_000}[rng.Intn(3)]
		burst := []int{0, 1 << 10, 4 << 10}[rng.Intn(3)]
		kit := NewTelemetry()
		opts := []ServerOption{WithFlowControl(FlowConfig{BurstBytes: burst}), WithTelemetry(kit)}
		cfg := ConsoleConfig{Width: w, Height: h, TotalBps: bps, Obs: kit.Registry}
		if seed%2 == 0 {
			opts = append(opts, WithCodec2())
			cfg.TileCacheEntries = DefaultTileCacheEntries
		}
		app := &scriptApp{}
		fabric := NewFabric()
		srv := NewServer(fabric, func(string, int, int) Application { return app }, opts...)
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
		owed, nacks := kit.Registry.Counter("slim_flow_owed_total"), kit.Registry.Counter("slim_console_nacks_total")
		for quiet := 0; quiet < 3; quiet++ {
			for i := 0; i < 12; i++ {
				op := randomOp(rng)
				app.ops = append(app.ops, op)
				refused := owed.Value()
				if err := fabric.SendKey("desk-1", 'k', true); err != nil {
					t.Fatal(err)
				}
				if _, scroll := op.(ScrollOp); !scroll && owed.Value() == refused {
					for _, r := range srv.Owed("alice") {
						if !r.Intersect(op.Bounds()).Empty() {
							t.Fatalf("seed %d: an admitted %T over %v left %v of it owed", seed, op, op.Bounds(), r)
						}
					}
				}
				if rng.Intn(3) == 0 {
					fabric.SetClock(fabric.Now() + time.Duration(rng.Int63n(int64(30*time.Millisecond))))
					if err := fabric.Pump(); err != nil {
						t.Fatal(err)
					}
				}
			}
			pumpQuiet(t, fabric, srv, sess, 50*time.Millisecond, 2*StatusInterval)
			if !con.Framebuffer().Equal(sess.Encoder.FB) || nacks.Value() != 0 || srv.Owed("alice") != nil {
				n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
				t.Fatalf("seed %d (%d bit/s, burst %d, quiet point %d): console differs in %d pixels, %d NACKs, owed %v",
					seed, bps, burst, quiet, n, nacks.Value(), srv.Owed("alice"))
			}
		}
	}
}
