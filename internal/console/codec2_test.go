package console

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/protocol"
)

// codec2Console builds a gen-2 console (tile cache armed) on its own
// metrics registry.
func codec2Console(t *testing.T, w, h int) (*Console, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(obs.DomainWall)
	c, err := New(Config{Width: w, Height: h, TileCacheEntries: core.DefaultTileCacheEntries, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	return c, reg
}

// feedAll pushes a datagram stream into a console, releasing wires and
// collecting any NACK replies.
func feedAll(t *testing.T, c *Console, dgs []core.Datagram) []protocol.Nack {
	t.Helper()
	var nacks []protocol.Nack
	for i := range dgs {
		replies, err := c.HandleDatagram(dgs[i].Wire, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range replies {
			_, m, _, err := protocol.Decode(r)
			if err != nil {
				t.Fatal(err)
			}
			if n, ok := m.(*protocol.Nack); ok {
				nacks = append(nacks, *n)
			}
		}
	}
	return nacks
}

// damageOps generates one step of the seeded damage sequence: a small op
// mix shaped like desktop traffic — palette fills, content blocks that
// reappear at their home positions (the cacheable pattern), glyph runs,
// and the occasional scroll. Content is tied to position so repeated
// exposure hits the cache instead of heating the churn tracker.
type damageGen struct {
	rng    *rand.Rand
	w, h   int
	blocks [][]protocol.Pixel
	pos    []protocol.Rect
	bits   [][]byte
}

func newDamageGen(seed int64, w, h int) *damageGen {
	g := &damageGen{rng: rand.New(rand.NewSource(seed)), w: w, h: h}
	const bw, bh = 64, 48
	for i := 0; i < 6; i++ {
		pix := make([]protocol.Pixel, bw*bh)
		for j := range pix {
			s := (uint32(j) + uint32(i)*7919 + 1) * 2654435761
			s ^= s >> 13
			pix[j] = protocol.Pixel(s & 0xffffff)
		}
		g.blocks = append(g.blocks, pix)
		g.pos = append(g.pos, protocol.Rect{X: (i % 4) * bw, Y: (i / 4) * bh, W: bw, H: bh})
	}
	for i := 0; i < 3; i++ {
		bits := make([]byte, protocol.BitmapRowBytes(64)*16)
		r := rand.New(rand.NewSource(seed + int64(i) + 100))
		r.Read(bits)
		g.bits = append(g.bits, bits)
	}
	return g
}

func (g *damageGen) step() []core.Op {
	var ops []core.Op
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		switch g.rng.Intn(6) {
		case 0:
			palette := []protocol.Pixel{0xC0C0C0, 0x000080, 0xFFFFFF, 0x808000}
			ops = append(ops, core.FillOp{
				Rect: protocol.Rect{
					X: g.rng.Intn(g.w/16) * 16, Y: g.rng.Intn(g.h/16) * 16,
					W: 16 * (1 + g.rng.Intn(4)), H: 16 * (1 + g.rng.Intn(3)),
				},
				Color: palette[g.rng.Intn(len(palette))],
			})
		case 1, 2, 3:
			j := g.rng.Intn(len(g.blocks))
			ops = append(ops, core.ImageOp{Rect: g.pos[j], Pixels: g.blocks[j]})
		case 4:
			ops = append(ops, core.TextOp{
				Rect: protocol.Rect{X: 16 * g.rng.Intn(8), Y: g.h - 16, W: 64, H: 16},
				Fg:   0x000000, Bg: 0xFFFFFF, Bits: g.bits[g.rng.Intn(len(g.bits))],
			})
		default:
			ops = append(ops, core.ScrollOp{
				Rect: protocol.Rect{X: 0, Y: 48, W: g.w, H: g.h - 96}, DX: 0, DY: -16,
			})
		}
	}
	return ops
}

// TestCodec2MirrorProperty is the 200-step property test: over a seeded
// damage sequence, a gen-2 encoder feeding a gen-2 console must (a) never
// provoke a NACK — every CACHE_PAINT claim lands on a mirrored entry —
// (b) leave the console's frame buffer byte-identical to the server's
// authoritative one, and (c) match, byte for byte, the screen a gen-1
// encoder/console pair produces from the same ops (no CSCS was emitted,
// so gen-2's cache shortcuts must be invisible in the pixels).
func TestCodec2MirrorProperty(t *testing.T) {
	const w, h, steps = 256, 192, 200
	enc2 := core.NewEncoder(w, h)
	enc2.EnableCodec2(0)
	con2, _ := codec2Console(t, w, h)
	enc1 := core.NewEncoder(w, h)
	con1 := newSizedConsole(t, w, h)

	gen2, gen1 := newDamageGen(42, w, h), newDamageGen(42, w, h)
	for i := 0; i < steps; i++ {
		for _, op := range gen2.step() {
			dgs, err := enc2.Encode(op)
			if err != nil {
				t.Fatal(err)
			}
			if nacks := feedAll(t, con2, dgs); len(nacks) != 0 {
				t.Fatalf("step %d: gen-2 console nacked %v", i, nacks)
			}
		}
		for _, op := range gen1.step() {
			dgs, err := enc1.Encode(op)
			if err != nil {
				t.Fatal(err)
			}
			if nacks := feedAll(t, con1, dgs); len(nacks) != 0 {
				t.Fatalf("step %d: gen-1 console nacked %v", i, nacks)
			}
		}
	}

	st := enc2.Codec2Stats()
	if st.Hits == 0 {
		t.Fatal("sequence never hit the cache; the property test is vacuous")
	}
	if st.Tiles[core.ClassChurn] != 0 {
		t.Fatalf("damage sequence heated the churn tracker (%d churn tiles); lossy output voids the byte-identity property", st.Tiles[core.ClassChurn])
	}
	if !con2.Framebuffer().Equal(enc2.FB) {
		t.Fatal("gen-2 console diverged from the authoritative frame buffer")
	}
	if !enc1.FB.Equal(enc2.FB) {
		t.Fatal("gen-1 and gen-2 encoders disagree on the authoritative screen")
	}
	if !con1.Framebuffer().Equal(con2.Framebuffer()) {
		t.Fatal("cache apply order is not byte-identical to the full re-encode")
	}

	// A recovery repaint must bring a cold console to the same screen, and
	// the stream it emits must be self-contained (claims only what it
	// seeded earlier in the same stream). The warm console receives the
	// same stream — in sequence order — so its gap tracker stays happy.
	cold, _ := codec2Console(t, w, h)
	repaint := enc2.RepaintAll()
	for i := range repaint {
		for _, c := range []*Console{con2, cold} {
			replies, err := c.HandleDatagram(repaint[i].Wire, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(replies) != 0 {
				t.Fatalf("repaint datagram %d drew a reply", i)
			}
		}
	}
	if !cold.Framebuffer().Equal(enc2.FB) {
		t.Fatal("repaint did not reproduce the screen on a cold console")
	}

	// After the repaint reset the server cache, the warm console (whose
	// cache is now a superset) must keep mirroring without a NACK.
	for i := 0; i < 20; i++ {
		for _, op := range gen2.step() {
			dgs, err := enc2.Encode(op)
			if err != nil {
				t.Fatal(err)
			}
			if nacks := feedAll(t, con2, dgs); len(nacks) != 0 {
				t.Fatalf("post-repaint step %d: console nacked %v", i, nacks)
			}
		}
	}
	if !con2.Framebuffer().Equal(enc2.FB) {
		t.Fatal("console diverged after the server-side cache reset")
	}
}

func newSizedConsole(t *testing.T, w, h int) *Console {
	t.Helper()
	c, err := New(Config{Width: w, Height: h})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCodec2ChurnStaysLossySynced drives video-rate rewrites of one region:
// the churn tracker must reclassify its photo tiles to CSCS, and because
// the server applies the same lossy command to its own frame buffer, the
// two ends stay byte-identical even through lossy encoding.
func TestCodec2ChurnStaysLossySynced(t *testing.T) {
	const w, h = 64, 64
	enc := core.NewEncoder(w, h)
	enc.EnableCodec2(0)
	con, _ := codec2Console(t, w, h)
	rng := rand.New(rand.NewSource(9))
	vid := protocol.Rect{X: 0, Y: 0, W: 32, H: 32}
	pix := make([]protocol.Pixel, vid.Pixels())
	for frame := 0; frame < 600; frame++ {
		for j := range pix {
			pix[j] = protocol.Pixel(rng.Uint32() & 0xffffff)
		}
		dgs, err := enc.Encode(core.ImageOp{Rect: vid, Pixels: pix})
		if err != nil {
			t.Fatal(err)
		}
		if nacks := feedAll(t, con, dgs); len(nacks) != 0 {
			t.Fatalf("frame %d: console nacked %v", frame, nacks)
		}
	}
	st := enc.Codec2Stats()
	if st.Tiles[core.ClassChurn] == 0 {
		t.Fatalf("600 video frames never went churn: %+v", st)
	}
	if !con.Framebuffer().Equal(enc.FB) {
		t.Fatal("lossy churn path desynchronized the frame buffers")
	}
}

// TestCachePaintMissSelfHeals plays the loss story end to end: a dropped
// SET leaves the console without a cache entry the server believes it
// holds; the console's miss-NACK makes the server forget the key and
// repaint pixels, and the loop converges to identical frame buffers with
// no special-case recovery protocol.
func TestCachePaintMissSelfHeals(t *testing.T) {
	const w, h = 64, 64
	enc := core.NewEncoder(w, h)
	enc.EnableCodec2(0)
	// ReorderWindow 1 so a single-datagram loss is declared immediately —
	// the default window of 64 would (correctly) wait for more traffic.
	reg := obs.NewRegistry(obs.DomainWall)
	con, err := New(Config{Width: w, Height: h, TileCacheEntries: core.DefaultTileCacheEntries, ReorderWindow: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}

	pix := make([]protocol.Pixel, core.TileSize*core.TileSize)
	for j := range pix {
		s := (uint32(j) + 1) * 2654435761
		pix[j] = protocol.Pixel(s & 0xffffff)
	}
	// A delivered baseline first: the gap tracker anchors at the first
	// datagram it sees, so loss is only detectable after it.
	base, err := enc.Encode(core.FillOp{Rect: protocol.Rect{W: w, H: h}, Color: 0x202020})
	if err != nil {
		t.Fatal(err)
	}
	if nacks := feedAll(t, con, base); len(nacks) != 0 {
		t.Fatalf("baseline nacked %v", nacks)
	}
	// The console never sees this paint: the datagram is "lost".
	if _, err := enc.Encode(core.ImageOp{Rect: protocol.Rect{W: 16, H: 16}, Pixels: pix}); err != nil {
		t.Fatal(err)
	}
	// Same content elsewhere: the server's model says the console holds
	// the tile, so it claims a hit the console cannot satisfy.
	dgs, err := enc.Encode(core.ImageOp{Rect: protocol.Rect{X: 32, Y: 32, W: 16, H: 16}, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if _, isCP := dgs[0].Msg.(*protocol.CachePaint); !isCP {
		t.Fatalf("expected a CACHE_PAINT claim, got %v", dgs[0].Msg.Type())
	}
	nacks := feedAll(t, con, dgs)
	if len(nacks) == 0 {
		t.Fatal("console satisfied a claim for an entry it never received")
	}
	// Recovery loop: every NACK regenerates a repaint from the server's
	// authoritative screen; a healthy protocol converges in a few rounds.
	for round := 0; len(nacks) > 0; round++ {
		if round > 4 {
			t.Fatalf("recovery did not converge; still nacking %v", nacks)
		}
		var next []protocol.Nack
		for _, n := range nacks {
			// The server's answer: the NACK's damage, repainted from its
			// frame buffer, or the whole screen if the range aged out.
			damage, ok := enc.Damage(n)
			if !ok {
				next = append(next, feedAll(t, con, enc.RepaintAll())...)
				continue
			}
			next = append(next, feedAll(t, con, enc.Repay(&damage, math.MaxInt))...)
		}
		nacks = next
	}
	if !con.Framebuffer().Equal(enc.FB) {
		t.Fatal("frame buffers did not converge after miss recovery")
	}
	if miss := reg.Counter("slim_console_cache_misses_total").Value(); miss == 0 {
		t.Error("cache miss not counted")
	}
}

// TestCacheHitDecodeTaggedDistinct pins the observability satellite: a
// cache-hit apply lands in its own CACHE_PAINT decode histogram bucket
// (not the bucket of the command that originally painted the pixels) and
// bumps the hit counter.
func TestCacheHitDecodeTaggedDistinct(t *testing.T) {
	const w, h = 64, 64
	enc := core.NewEncoder(w, h)
	enc.EnableCodec2(0)
	con, reg := codec2Console(t, w, h)

	pix := make([]protocol.Pixel, core.TileSize*core.TileSize)
	for j := range pix {
		s := (uint32(j) + 5) * 2654435761
		pix[j] = protocol.Pixel(s & 0xffffff)
	}
	for _, x := range []int{0, 32} { // second paint is the cache hit
		dgs, err := enc.Encode(core.ImageOp{Rect: protocol.Rect{X: x, W: 16, H: 16}, Pixels: pix})
		if err != nil {
			t.Fatal(err)
		}
		if nacks := feedAll(t, con, dgs); len(nacks) != 0 {
			t.Fatalf("nacked %v", nacks)
		}
	}
	hits := reg.Counter("slim_console_cache_hits_total").Value()
	if hits == 0 {
		t.Fatal("no cache hit counted")
	}
	cpHist := reg.Histogram(fmt.Sprintf("slim_console_decode_seconds{cmd=%q}", protocol.TypeCachePaint.String()))
	if cpHist.Count() != hits {
		t.Errorf("CACHE_PAINT decode histogram holds %d observations, %d hits applied", cpHist.Count(), hits)
	}
	setHist := reg.Histogram(fmt.Sprintf("slim_console_decode_seconds{cmd=%q}", protocol.TypeSet.String()))
	if setHist.Count() == 0 {
		t.Error("SET decode histogram empty; miss path untagged")
	}
}

// TestHelloAckKeepsTheSessionsTiles: the ack of a Hello with a card trails
// the SessionAttach and whatever of the repaint left with it. It names the
// session the console is already showing, so it must not start another
// cache generation — the server's mirror counts on the tiles the repaint
// has cached, and every CACHE_PAINT after the ack would otherwise miss.
// An ack naming any other session still starts clean.
// repaint is the encoder's unbounded repayment of the one rect r.
func repaint(enc *core.Encoder, r protocol.Rect) []core.Datagram {
	var d fb.Region
	d.Add(r)
	return enc.Repay(&d, math.MaxInt)
}

func TestHelloAckKeepsTheSessionsTiles(t *testing.T) {
	c, reg := codec2Console(t, 64, 64)
	enc := core.NewEncoder(64, 64)
	enc.EnableCodec2(0)
	// Wallpaper: one tile of noise repeated, so every tile after the first
	// is a claim of the tile the first one cached.
	rng := rand.New(rand.NewSource(3))
	var tile [core.TileSize * core.TileSize]protocol.Pixel
	for i := range tile {
		tile[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	for i := range enc.FB.Pix {
		x, y := i%64, i/64
		enc.FB.Pix[i] = tile[y%core.TileSize*core.TileSize+x%core.TileSize]
	}
	control := func(msg protocol.Message) {
		t.Helper()
		if _, err := c.HandleDatagram(protocol.Encode(nil, 0, msg), 0); err != nil {
			t.Fatal(err)
		}
	}
	control(&protocol.SessionAttach{SessionID: 7})
	top := protocol.Rect{W: 64, H: core.TileSize}
	if nacks := feedAll(t, c, repaint(enc, top)); len(nacks) != 0 {
		t.Fatalf("the first piece of the repaint drew %d NACKs", len(nacks))
	}
	control(&protocol.HelloAck{SessionID: 7})
	rest := repaint(enc, protocol.Rect{Y: core.TileSize, W: 64, H: 64 - core.TileSize})
	if _, isClaim := rest[0].Msg.(*protocol.CachePaint); !isClaim {
		t.Fatalf("the rest of the wallpaper opens with %v; nothing claims the cached tile", rest[0].Msg.Type())
	}
	if nacks := feedAll(t, c, rest); len(nacks) != 0 {
		t.Errorf("after the ack of its own session the console missed %d cached tiles", len(nacks))
	}
	control(&protocol.HelloAck{SessionID: 8})
	if nacks := feedAll(t, c, repaint(enc, top)); len(nacks) == 0 {
		t.Error("an ack naming another session kept the old session's tiles")
	}
	if reg.Counter("slim_console_cache_misses_total").Value() == 0 {
		t.Error("no miss was counted")
	}
}
