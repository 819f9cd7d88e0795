package slim

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

// The statelessness claim (§2.2) as a property over seeded fault schedules:
// whatever a schedule does to the console showing a session on a Fabric —
// loss bursts, a lost tail, a lost middle, periodic loss, a reboot (quiet,
// or painted before its first heartbeat), a hotdesk and back,
// decode-overload drops — the console heals from the
// server's frame buffer, promptly and for about what was lost. Each fault
// runs on one world while a twin without faults paints the same ops on the
// same clock; the difference in commands encoded is what the fault cost.

const faultW, faultH = 256, 192

// faultWorld is one server, the session it runs for alice, and the desks
// that can show it.
type faultWorld struct {
	fabric *Fabric
	srv    *Server
	kit    *TelemetryKit
	app    *scriptApp
	cfg    ConsoleConfig
	gen2   bool
	cons   map[string]*Console
	desk   string // where the session is shown
	sess   *Session
	// wire taps every datagram the fabric carries; step spools it into
	// digest, so the ring never fills.
	wire   *capture.Ring
	digest hash.Hash

	// seen is the encoder's last sequence at the last step, busyAt the
	// last instant the session was seen encoding or owing, and
	// wakeups how often it turned busy again after a heartbeat of
	// stillness since mark.
	seen    uint32
	busyAt  time.Duration
	wakeups int
}

func newFaultWorld(t *testing.T, gen2 bool, grant uint64) *faultWorld {
	t.Helper()
	kit := NewTelemetry()
	w := &faultWorld{fabric: NewFabric(), kit: kit, app: &scriptApp{}, gen2: gen2, cons: make(map[string]*Console),
		wire: capture.NewRing(1 << 12), digest: sha256.New()}
	w.wire.SetEnabled(true)
	w.fabric.SetCapture(w.wire)
	w.cfg = ConsoleConfig{Width: faultW, Height: faultH, Costs: SunRay1Costs(), Obs: kit.Registry}
	opts := []ServerOption{WithTelemetry(kit)}
	if grant > 0 {
		// A 4 KB burst paces in pieces of a few tiles: debts wait, and a
		// repaint spans many calls.
		opts = append(opts, WithFlowControl(FlowConfig{BurstBytes: 4 << 10}))
		w.cfg.TotalBps = grant
	}
	if gen2 {
		w.cfg.TileCacheEntries = DefaultTileCacheEntries
	}
	w.srv = NewServer(w.fabric, func(string, int, int) Application { return w.app }, opts...)
	w.srv.Auth.Register("card-alice", "alice")
	w.boot(t, "desk-1")
	w.sess = w.srv.SessionByUser("alice")
	return w
}

func (w *faultWorld) newConsole(t *testing.T) *Console {
	t.Helper()
	con, err := NewConsole(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	return con
}

// boot badges alice in at desk with a Hello, wiring a console there first
// if the desk has none.
func (w *faultWorld) boot(t *testing.T, desk string) {
	t.Helper()
	if w.cons[desk] == nil {
		w.cons[desk] = w.newConsole(t)
		w.fabric.Attach(desk, w.cons[desk], w.srv)
	}
	if err := w.fabric.Boot(desk, "card-alice"); err != nil {
		t.Fatal(err)
	}
	w.desk = desk
}

// reboot swaps a blank console in at the session's desk without a Hello:
// nothing tells the server but the console's own heartbeat.
func (w *faultWorld) reboot(t *testing.T) {
	w.cons[w.desk] = w.newConsole(t)
	w.fabric.Attach(w.desk, w.cons[w.desk], w.srv)
}

func (w *faultWorld) con() *Console { return w.cons[w.desk] }

// cacheMisses counts the CACHE_PAINT claims the world's consoles could not
// serve.
func (w *faultWorld) cacheMisses() int64 {
	return w.kit.Registry.Counter("slim_console_cache_misses_total").Value()
}

func (w *faultWorld) paint(t *testing.T, op Op) {
	t.Helper()
	w.app.ops = append(w.app.ops, op)
	if err := w.fabric.SendKey(w.desk, 'k', true); err != nil {
		t.Fatal(err)
	}
}

// mark starts watching for wake-ups from now.
func (w *faultWorld) mark() {
	w.seen, w.busyAt, w.wakeups = w.sess.Encoder.LastSeq(), w.fabric.Now(), 0
}

// step moves the clock one StatusAckDelay, runs the periodic duties, and
// notes whether the session is busy: encoding or owing.
func (w *faultWorld) step(t *testing.T) {
	t.Helper()
	w.fabric.SetClock(w.fabric.Now() + StatusAckDelay)
	if err := w.fabric.Pump(); err != nil {
		t.Fatal(err)
	}
	w.spool(t)
	if w.sess.Encoder.LastSeq() == w.seen && w.srv.Owed("alice") == nil {
		return
	}
	if now := w.fabric.Now(); now-w.busyAt >= StatusInterval {
		w.wakeups++
	}
	w.seen, w.busyAt = w.sess.Encoder.LastSeq(), w.fabric.Now()
}

// quiet steps the worlds' clocks together until each session has been
// still for two heartbeats, which is a quiet point.
func quiet(t *testing.T, worlds ...*faultWorld) {
	t.Helper()
	for _, w := range worlds {
		w.mark()
	}
	for start := worlds[0].fabric.Now(); ; {
		still := true
		for _, w := range worlds {
			still = still && w.fabric.Now()-w.busyAt >= 2*StatusInterval+2*StatusAckDelay
		}
		if still {
			return
		}
		if worlds[0].fabric.Now()-start > time.Minute {
			t.Fatal("no quiet point after a minute of virtual time")
		}
		for _, w := range worlds {
			w.step(t)
		}
	}
}

// check asserts the quiet-point invariants: the console shows the session's
// frame buffer, nothing is owed, the console's STATUS does not trail, and
// the line woke at most twice after a heartbeat of stillness — a lost tail
// heals in two rounds, everything else in one.
func (w *faultWorld) check(t *testing.T, when string) {
	t.Helper()
	if con := w.con(); !con.Framebuffer().Equal(w.sess.Encoder.FB) {
		n, _ := con.Framebuffer().DiffPixels(w.sess.Encoder.FB)
		t.Fatalf("%s: the console differs from the session's frame buffer in %d pixels", when, n)
	}
	if owed := w.srv.Owed("alice"); owed != nil {
		t.Fatalf("%s: the session still owes %v", when, owed)
	}
	if got, last := w.con().Status().LastSeq, w.sess.Encoder.LastSeq(); got != last {
		t.Fatalf("%s: the console's STATUS reports %d of %d", when, got, last)
	}
	if w.wakeups > 2 {
		t.Fatalf("%s: the line woke %d times after a heartbeat of stillness", when, w.wakeups)
	}
}

// spool moves what the capture ring holds into the world's digest.
func (w *faultWorld) spool(t *testing.T) {
	t.Helper()
	if _, err := w.wire.SpoolTo(w.digest); err != nil {
		t.Fatal(err)
	}
	if n := w.wire.Drops(); n != 0 {
		t.Fatalf("the capture ring shed %d records", n)
	}
}

// worldOutcome is where a console ended a simulated run: what it shows
// and reports, what its fabric lost, and a digest of everything the
// fabric carried.
type worldOutcome struct {
	screen           [sha256.Size]byte
	lastSeq, dropped uint32 // the console's STATUS
	lost             int    // display datagrams the fabric dropped
	wire             string // capture digest
}

func (w *faultWorld) outcome(t *testing.T) worldOutcome {
	t.Helper()
	w.spool(t)
	st := w.con().Status()
	_, lost := w.fabric.LossStats()
	return worldOutcome{screenDigest(w.con().Framebuffer()), st.LastSeq, st.Dropped, lost, string(w.digest.Sum(nil))}
}

// screenDigest hashes a frame buffer's pixels.
func screenDigest(f *fb.Framebuffer) [sha256.Size]byte {
	b := make([]byte, 0, 4*len(f.Pix))
	for _, p := range f.Pix {
		b = binary.LittleEndian.AppendUint32(b, uint32(p))
	}
	return sha256.Sum256(b)
}

// screen is what one screen of commands is: a fresh repaint of the
// session's frame buffer, or one command per tile — what a repaint paced in
// pieces of whole tiles may cost — whichever is more.
func (w *faultWorld) screen() int64 {
	dgs := freshRepaint(w.sess.Encoder.FB, w.gen2)
	for i := range dgs {
		dgs[i].ReleaseWire()
	}
	return max(int64(len(dgs)), (faultW/core.TileSize)*(faultH/core.TileSize))
}

// freshRepaint is what one screen of src costs: a repaint of its pixels by
// a scratch encoder that has sent nothing before, on the gen-2 tile path
// or gen-1's. The caller owns the wires.
func freshRepaint(src *fb.Framebuffer, gen2 bool) []Datagram {
	enc := NewEncoder(src.W, src.H)
	copy(enc.FB.Pix, src.Pix)
	if gen2 {
		enc.EnableCodec2(0)
	}
	return enc.RepaintAll()
}

// faultOp draws an op of at most a quarter of the screen.
func faultOp(rng *rand.Rand) Op {
	r := Rect{W: 1 + rng.Intn(faultW/2), H: 1 + rng.Intn(faultH/2)}
	r.X, r.Y = rng.Intn(faultW-r.W+1), rng.Intn(faultH-r.H+1)
	switch k := rng.Intn(10); {
	case k < 3:
		return noise(rng, r)
	case k < 5:
		bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
		rng.Read(bits)
		return TextOp{Rect: r, Fg: Pixel(rng.Uint32() & 0xffffff), Bits: bits}
	case k < 7:
		return FillOp{Rect: r, Color: Pixel(rng.Uint32() & 0xffffff)}
	default:
		dx, dy := rng.Intn(faultW-r.W+1)-r.X, rng.Intn(faultH-r.H+1)-r.Y
		if dx == 0 && dy == 0 {
			return FillOp{Rect: r}
		}
		return ScrollOp{Rect: r, DX: dx, DY: dy}
	}
}

func noise(rng *rand.Rand, r Rect) ImageOp {
	pix := make([]Pixel, r.Pixels())
	for i := range pix {
		pix[i] = Pixel(rng.Uint32() & 0xffffff)
	}
	return ImageOp{Rect: r, Pixels: pix}
}

// wallpaper repeats one tile of noise across a w×h screen: a gen-2
// repaint of it is one tile of pixels and a cache hit for every other tile.
func wallpaper(rng *rand.Rand, w, h int) ImageOp {
	const ts = core.TileSize
	tile, op := noise(rng, Rect{W: ts, H: ts}), ImageOp{Rect: Rect{W: w, H: h}, Pixels: make([]Pixel, w*h)}
	for i := range op.Pixels {
		op.Pixels[i] = tile.Pixels[(i/w)%ts*ts+i%w%ts]
	}
	return op
}

// TestFaultScheduleConverges runs every fault once per seed — the hotdesk
// twice, away and back — in a seeded order between bursts of ordinary
// painting, on gen-1 and gen-2 consoles with and without a grant. At every
// quiet point both worlds satisfy check, each fault costs the faulty
// world at most one screen of commands plus 64 more than its twin, and no
// claim misses after a hotdesk. The
// rules it leans on: the console settles holes once its line is quiet, the
// server judges a STATUS only on a quiet line, a console showing no
// session reports a LastSeq of 0, which attaches the session again and
// owes the screen with its tile cache, a COPY of owed pixels is owed, and
// a HelloAck keeps the tiles the repaint before it cached.
func TestFaultScheduleConverges(t *testing.T) {
	for seed := int64(1); seed <= faultSeeds; seed++ {
		runFaultSchedule(t, seed)
	}
}

// faultSeeds is how many seeds TestFaultScheduleConverges runs: two of
// each pairing of gen-1 or gen-2 with a grant or none.
const faultSeeds = 8

// runFaultSchedule runs TestFaultScheduleConverges for one seed, checking
// as it goes, and returns the faulty world and its twin.
func runFaultSchedule(t *testing.T, seed int64) (f, twin *faultWorld) {
	t.Helper()
	faults := []struct {
		name string
		do   func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(n int))
	}{
		{"loss burst", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) {
			f.fabric.SetLoss(1)
			paint(1 + rng.Intn(3))
			f.fabric.SetLoss(0)
			paint(1 + rng.Intn(3))
		}},
		{"lost tail", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) {
			f.fabric.SetLoss(1)
			paint(1)
			f.fabric.SetLoss(0)
		}},
		{"lost middle", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) {
			f.fabric.SetLoss(1)
			paint(1)
			f.fabric.SetLoss(0)
			paint(4)
		}},
		{"periodic loss", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) {
			f.fabric.SetLoss(4 + rng.Intn(4))
			paint(3)
			f.fabric.SetLoss(0)
		}},
		{"reboot", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) { f.reboot(t) }},
		{"hotdesk", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) {
			if f.desk == "desk-1" {
				f.boot(t, "desk-2") // powered on with the card in
				return
			}
			if err := f.fabric.InsertCard("desk-1", "card-alice"); err != nil { // still on: the card alone moves it back
				t.Fatal(err)
			}
			f.desk = "desk-1"
		}},
		{"hotdesk", nil}, // and back
		{"decode overload", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) {
			con, limit := f.con(), f.con().QueueLimit
			con.QueueLimit = 0
			paint(2)
			con.QueueLimit = limit
		}},
		// Painted before its first heartbeat, a rebooted console still
		// reports that it holds nothing.
		{"reboot under paint", func(t *testing.T, rng *rand.Rand, f *faultWorld, paint func(int)) {
			f.reboot(t)
			paint(1 + rng.Intn(3))
		}},
	}
	faults[6].do = faults[5].do
	rng := rand.New(rand.NewSource(seed))
	gen2, grant := seed%2 == 0, uint64(0)
	if seed%4 >= 2 {
		grant = []uint64{256_000, 2_000_000}[rng.Intn(2)]
	}
	f, twin = newFaultWorld(t, gen2, grant), newFaultWorld(t, gen2, grant)
	both := func(op Op) {
		f.paint(t, op)
		twin.paint(t, op)
	}
	paint := func(n int) {
		for ; n > 0; n-- {
			both(faultOp(rng))
		}
	}
	at := func(what string) string {
		return what + " (seed " + strconv.FormatInt(seed, 10) + map[bool]string{false: ", gen-1", true: ", gen-2"}[gen2] +
			map[bool]string{false: ", no grant)", true: ", under a grant)"}[grant > 0]
	}
	quiet(t, f, twin)
	f.check(t, at("attach"))
	for _, i := range rng.Perm(len(faults)) {
		fault := faults[i]
		// Ordinary painting, time passing between ops: under a grant
		// some land while a debt is still being paid.
		for n := rng.Intn(24); n > 0; n-- {
			paint(1)
			f.step(t)
			twin.step(t)
		}
		// A gen-2 console loses its tile cache to a reboot, and a hotdesk
		// repaint fills a new one: either must leave the server's mirror
		// holding only what the console holds. A reboot strikes tiles
		// the mirror holds and no CACHE_PAINT has named yet, a hotdesk a
		// screen of cache hits.
		var paper ImageOp
		switch fault.name {
		case "reboot", "reboot under paint":
			both(noise(rng, Rect{W: faultW, H: faultH}))
		case "hotdesk":
			paper = wallpaper(rng, faultW, faultH)
			both(paper)
		}
		quiet(t, f, twin)
		f.check(t, at("painting before "+fault.name))
		twin.check(t, at("the twin's painting before "+fault.name))
		f0, t0 := f.sess.Encoder.LastSeq(), twin.sess.Encoder.LastSeq()
		misses := f.cacheMisses()
		fault.do(t, rng, f, paint)
		if fault.name == "hotdesk" {
			// Right after the move the wallpaper is painted again: a
			// claim of every tile, which the new desk's console holds
			// from the repaint whether or not its HelloAck trails it.
			both(paper)
		}
		quiet(t, f, twin)
		f.check(t, at(fault.name))
		twin.check(t, at("the twin's "+fault.name))
		if n := f.cacheMisses() - misses; fault.name == "hotdesk" && n != 0 {
			t.Fatalf("%s: %d claims missed on a line that loses nothing", at(fault.name), n)
		}
		cost := int64(f.sess.Encoder.LastSeq()-f0) - int64(twin.sess.Encoder.LastSeq()-t0)
		if screen := f.screen(); cost > screen+64 {
			t.Fatalf("%s cost %d commands; one screen is %d", at(fault.name), cost, screen)
		}
	}
	return f, twin
}
