package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"slim/internal/fb"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// photoPix mints a deterministic continuous-tone pixel block — content the
// classifier reads as photo, so it exercises the SET miss path and caches
// with a unique key per salt.
func photoPix(w, h int, salt uint32) []protocol.Pixel {
	pix := make([]protocol.Pixel, w*h)
	for i := range pix {
		s := (uint32(i) + salt*7919 + 1) * 2654435761
		s ^= s >> 13
		s *= 2246822519
		pix[i] = protocol.Pixel(s & 0xffffff)
	}
	return pix
}

func countCachePaints(dgs []Datagram) int {
	n := 0
	for i := range dgs {
		if _, ok := dgs[i].Msg.(*protocol.CachePaint); ok {
			n++
		}
	}
	return n
}

// TestCodec2HitsOnRepeatedContent pins the cache's content addressing end
// to end on the encoder: the first paint of a tile misses (SET), painting
// the same content again — even at a different position — hits and emits
// one 28-byte CACHE_PAINT instead.
func TestCodec2HitsOnRepeatedContent(t *testing.T) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	pix := photoPix(TileSize, TileSize, 1)

	dgs, err := e.Encode(ImageOp{Rect: protocol.Rect{W: TileSize, H: TileSize}, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if n := countCachePaints(dgs); n != 0 {
		t.Fatalf("first paint emitted %d CACHE_PAINTs", n)
	}
	st := e.Codec2Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Tiles[ClassPhoto] != 1 {
		t.Fatalf("after first paint: %+v", st)
	}

	// Same content, different tile-aligned position: position independence.
	dgs, err = e.Encode(ImageOp{Rect: protocol.Rect{X: 32, W: TileSize, H: TileSize}, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 {
		t.Fatalf("repeat paint emitted %d datagrams, want 1", len(dgs))
	}
	cp, ok := dgs[0].Msg.(*protocol.CachePaint)
	if !ok {
		t.Fatalf("repeat paint emitted %v, want CACHE_PAINT", dgs[0].Msg.Type())
	}
	if want := e.FB.HashRect(cp.Rect); cp.Key != want {
		t.Fatalf("claimed key %#x, frame buffer content hashes to %#x", cp.Key, want)
	}
	st = e.Codec2Stats()
	if st.Hits != 1 {
		t.Fatalf("after repeat paint: %+v", st)
	}
	if st.SavedBytes <= 0 {
		t.Fatal("hit recorded no saved bytes")
	}

	// A gen-1 encoder over the same ops never emits CACHE_PAINT.
	g1 := NewEncoder(64, 64)
	for _, x := range []int{0, 32} {
		dgs, err := g1.Encode(ImageOp{Rect: protocol.Rect{X: x, W: TileSize, H: TileSize}, Pixels: pix})
		if err != nil {
			t.Fatal(err)
		}
		if n := countCachePaints(dgs); n != 0 {
			t.Fatal("gen-1 encoder emitted CACHE_PAINT")
		}
	}
}

// TestRepaintAllResetsCodec2: a full repaint is the recovery/attach moment
// when console cache state stops being trustworthy, so it must start a new
// generation — any CACHE_PAINT it emits may claim only entries the repaint
// stream itself seeded earlier (in-stream dedup a fresh, empty console can
// satisfy by applying in order), never entries from before the reset.
func TestRepaintAllResetsCodec2(t *testing.T) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	pix := photoPix(TileSize, TileSize, 2)
	if _, err := e.Encode(ImageOp{Rect: protocol.Rect{W: TileSize, H: TileSize}, Pixels: pix}); err != nil {
		t.Fatal(err)
	}
	resets := e.Codec2Stats().Resets
	dgs := e.RepaintAll()
	if got := e.Codec2Stats().Resets; got != resets+1 {
		t.Fatalf("RepaintAll bumped Resets %d -> %d, want +1", resets, got)
	}
	// Replay the stream against a fresh mirror, exactly as a just-reset
	// console would: every claim must already be present at claim time.
	screen := fb.New(64, 64)
	mirrorConsole(t, screen, NewTileCache(DefaultTileCacheEntries, true), dgs)
	if !screen.Equal(e.FB) {
		t.Fatal("repaint replay diverged from the authoritative frame buffer")
	}
	// The repaint itself re-seeded the cache: repainting the same screen
	// region again (not via RepaintAll) now hits.
	again := repaint(e, protocol.Rect{W: TileSize, H: TileSize})
	if n := countCachePaints(again); n != 1 {
		t.Fatalf("post-repaint re-encode claimed %d hits, want 1", n)
	}
}

// mirrorConsole replays a gen-2 stream the way a console does: a claim
// paints the cached tile, anything else applies, and then the mirrored
// insert rule runs. It fails the test on a claim the console cannot serve.
func mirrorConsole(t *testing.T, screen *fb.Framebuffer, cache *TileCache, dgs []Datagram) {
	t.Helper()
	for i := range dgs {
		if cp, ok := dgs[i].Msg.(*protocol.CachePaint); ok {
			pix, hit := cache.Lookup(cp.Key, cp.Rect.W, cp.Rect.H)
			if !hit {
				t.Fatalf("datagram %d claims key %#x the console does not hold", i, cp.Key)
			}
			if err := screen.Set(cp.Rect, pix); err != nil {
				t.Fatal(err)
			}
		} else if err := screen.Apply(dgs[i].Msg); err != nil {
			t.Fatal(err)
		}
		cache.NoteApply(screen, dgs[i].Msg)
	}
}

// lruKeys lists a cache's keys from most to least recently used.
func lruKeys(c *TileCache) []uint64 {
	var keys []uint64
	for i := c.head; i >= 0; i = c.ent[i].next {
		keys = append(keys, c.ent[i].key)
	}
	return keys
}

// TestSolidRunsAreOneFill: gen-2 sends a solid tile as part of a run of
// FILL — consecutive solid tiles of one color in a tile row, edge tiles
// included, leave as one FILL when the run ends — and probes the cache
// only for the other tiles. No FILL inserts, so both sides' caches hold
// the same keys, in the same order.
func TestSolidRunsAreOneFill(t *testing.T) {
	blank := NewEncoder(1280, 1024)
	blank.EnableCodec2(0)
	dgs := blank.RepaintAll()
	for i := range dgs {
		f, ok := dgs[i].Msg.(*protocol.Fill)
		if want := (protocol.Rect{Y: i * TileSize, W: 1280, H: TileSize}); !ok || f.Rect != want {
			t.Fatalf("blank repaint command %d is %v %v, want a FILL of the tile row %v", i, dgs[i].Msg.Type(), WriteRect(dgs[i].Msg), want)
		}
	}
	if len(dgs) != 64 {
		t.Fatalf("a blank 1280x1024 repaint is %d commands, want 64 FILLs", len(dgs))
	}
	if st := blank.Codec2Stats(); st.Tiles[ClassSolid] != 5120 || st.Hits+st.Misses != 0 {
		t.Fatalf("a blank repaint counted %d solid tiles and %d probes, want 5120 and none", st.Tiles[ClassSolid], st.Hits+st.Misses)
	}

	const w, h = runScreenW, runScreenH
	e := NewEncoder(w, h)
	e.EnableCodec2(0)
	dgs, err := e.Encode(runScreen())
	if err != nil {
		t.Fatal(err)
	}
	fill := func(x, y, w, h int, c protocol.Pixel) string {
		return fmt.Sprintf("fill %v #%06x", protocol.Rect{X: x, Y: y, W: w, H: h}, c)
	}
	a, b := runScreenA, runScreenB
	want := []string{
		fill(0, 0, 32, 16, a), "tile 16x16+32+0", fill(48, 0, 16, 16, a), fill(64, 0, 8, 16, b),
		"claim 16x16+0+16", fill(16, 16, 56, 16, a),
		fill(0, 32, 72, 10, b),
	}
	if got := describe(dgs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("encoded\n\t%v\nwant\n\t%v", got, want)
	}
	if st := e.Codec2Stats(); st.Tiles[ClassSolid] != 13 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("counted %d solid tiles, %d hits and %d misses; want 13, 1 and 1", st.Tiles[ClassSolid], st.Hits, st.Misses)
	}

	screen, cache := fb.New(w, h), NewTileCache(DefaultTileCacheEntries, true)
	mirrorConsole(t, screen, cache, dgs)
	if !screen.Equal(e.FB) {
		t.Fatal("the console's frame buffer differs from the encoder's")
	}
	if server, console := lruKeys(e.codec2.cache), lruKeys(cache); fmt.Sprint(server) != fmt.Sprint(console) || len(server) != 1 {
		t.Fatalf("server cache holds %x, console %x; want the noise tile on both", server, console)
	}
}

// The run screen is 72x42: four tile columns and an 8-wide edge, two tile
// rows and a 10-high edge. Row 0 is A A noise A B(edge); row 1 repeats the
// noise tile, then A to the edge; row 2 is all B.
const runScreenW, runScreenH = 72, 42

var runScreenA, runScreenB = protocol.RGB(10, 20, 30), protocol.RGB(40, 50, 60)

func runScreen() ImageOp {
	const w, h = runScreenW, runScreenH
	op := ImageOp{Rect: protocol.Rect{W: w, H: h}, Pixels: make([]protocol.Pixel, w*h)}
	noise := photoPix(TileSize, TileSize, 3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := runScreenA
			switch {
			case y >= 2*TileSize, y < TileSize && x >= 4*TileSize:
				p = runScreenB
			case y < TileSize && x/TileSize == 2:
				p = noise[y*TileSize+x-2*TileSize]
			case y >= TileSize && x < TileSize:
				p = noise[(y-TileSize)*TileSize+x]
			}
			op.Pixels[y*w+x] = p
		}
	}
	return op
}

// describe lists a stream's commands — FILLs with their color, claims, and
// any other tile command — releasing the wires.
func describe(dgs []Datagram) []string {
	var got []string
	for i := range dgs {
		switch m := dgs[i].Msg.(type) {
		case *protocol.Fill:
			got = append(got, fmt.Sprintf("fill %v #%06x", m.Rect, m.Color))
		case *protocol.CachePaint:
			got = append(got, "claim "+m.Rect.String())
		default:
			got = append(got, "tile "+WriteRect(m).String())
		}
	}
	return got
}

// repaint is Repay of the one rect r, unbounded.
func repaint(e *Encoder, r protocol.Rect) []Datagram {
	var d fb.Region
	d.Add(r)
	return e.Repay(&d, math.MaxInt)
}

// mixedScreen paints a w×h gen-2 encoder, tile by tile: solid runs of
// three colors, two-color text, photo, and a wallpaper tile the encoder
// has sent once already, so its copies are warm cache hits.
func mixedScreen(t *testing.T, w, h int) *Encoder {
	e := NewEncoder(w, h)
	e.EnableCodec2(0)
	paper := photoPix(TileSize, TileSize, 7)
	if _, err := e.Encode(ImageOp{Rect: protocol.Rect{W: TileSize, H: TileSize}, Pixels: paper}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	palette := []protocol.Pixel{0x102030, 0xf0f0f0, 0x305010}
	color := palette[0]
	for y := 0; y < h; y += TileSize {
		for x := 0; x < w; x += TileSize {
			if x+y == 0 {
				continue // the wallpaper tile itself
			}
			cell := protocol.Rect{X: x, Y: y, W: min(TileSize, w-x), H: min(TileSize, h-y)}
			kind := rng.Intn(8)
			for i := 0; i < cell.Pixels(); i++ {
				px, py := i%cell.W, i/cell.W
				p := color
				switch {
				case kind == 4: // text: ink on paper
					p = palette[1+rng.Intn(4)/3]
				case kind == 5: // photo
					p = protocol.Pixel(rng.Uint32() & 0xffffff)
				case kind >= 6: // wallpaper
					p = paper[py*TileSize+px]
				}
				e.FB.Pix[(y+py)*w+x+px] = p
			}
			if kind == 3 { // a run changes color at the next solid tile
				color = palette[rng.Intn(len(palette))]
			}
		}
	}
	return e
}

// commands lists a stream's commands by type, rect and cache key,
// releasing the wires.
func commands(dgs []Datagram) []string {
	var got []string
	for i := range dgs {
		key := uint64(0)
		if cp, ok := dgs[i].Msg.(*protocol.CachePaint); ok {
			key = cp.Key
		}
		got = append(got, fmt.Sprintf("%v %v %x", dgs[i].Msg.Type(), WriteRect(dgs[i].Msg), key))
	}
	return got
}

// TestRepayPiecesJoinUpToTheWhole: a paced repaint pays a screen in
// pieces cut to whatever budget each call has, and the pieces join up to
// exactly the commands of one unbounded call — on gen-2 a stop falls only
// where a run of solid tiles ends, on gen-1 on the grid of its literal
// SETs — each call within its budget unless it painted a single piece.
func TestRepayPiecesJoinUpToTheWhole(t *testing.T) {
	screens := map[string]func() *Encoder{
		// Edge tiles on both axes.
		"gen-2 mixed": func() *Encoder { return mixedScreen(t, 200, 120) },
		// Two SETs a row, 464 and 136 pixels wide.
		"gen-1 noise": func() *Encoder {
			e := NewEncoder(600, 48)
			copy(e.FB.Pix, photoPix(600, 48, 9))
			return e
		},
	}
	for name, fresh := range screens {
		screen := fresh().FB.Bounds()
		whole := fmt.Sprint(commands(repaint(fresh(), screen)))
		rng := rand.New(rand.NewSource(11))
		for budgets := 0; budgets < 200; {
			e := fresh()
			var owed fb.Region
			owed.Add(screen)
			var got []string
			for !owed.Empty() {
				budget := TileWire + rng.Intn(3*TileWire+1)
				budgets++
				dgs := e.Repay(&owed, budget)
				bytes := 0
				for _, d := range dgs {
					bytes += protocol.WireSize(d.Msg)
				}
				if bytes > budget && len(dgs) > 1 {
					t.Fatalf("%s: a call with a budget of %d B sent %d B in %d commands", name, budget, bytes, len(dgs))
				}
				if len(dgs) == 0 {
					t.Fatalf("%s: a call with a budget of %d B painted nothing of %v", name, budget, owed.Rects())
				}
				got = append(got, commands(dgs)...)
			}
			if fmt.Sprint(got) != whole {
				t.Fatalf("%s: the pieces encode\n\t%v\nthe whole\n\t%s", name, got, whole)
			}
		}
	}
}

// TestCodec2CacheHitZeroAllocSteadyState asserts the ISSUE's budget for the
// warm cache-hit encode path: hash the tile, probe the cache, touch the
// entry, emit the framed CACHE_PAINT — zero allocations per hit once the
// buffer pool is warm. Like TestEmitZeroAllocSteadyState,
// the white-box test reuses the message value; the path under test is
// everything else.
func TestCodec2CacheHitZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	tile := protocol.Rect{W: TileSize, H: TileSize}
	if _, err := e.Encode(ImageOp{Rect: tile, Pixels: photoPix(TileSize, TileSize, 3)}); err != nil {
		t.Fatal(err)
	}
	msg := &protocol.CachePaint{Rect: tile}
	hit := func() {
		key := e.FB.HashRect(tile)
		if !e.codec2.cache.Contains(key) {
			t.Fatal("warm tile missed")
		}
		msg.Key = key
		e.begin()
		e.emit(msg) // noteEmit touches the entry
	}
	for i := 0; i < 5000; i++ { // warm the ring
		hit()
	}
	allocs := testing.AllocsPerRun(2000, hit)
	if allocs > 0.01 {
		t.Errorf("warm cache-hit encode path allocates %.3f objects/op, want 0", allocs)
	}
}

// --- BenchmarkHotpath_Codec2*: the gen-2 tile paths ---

// BenchmarkHotpath_Codec2HitTile measures one warm cache hit end to end:
// content hash, cache probe, LRU touch, CACHE_PAINT emit and wire framing.
func BenchmarkHotpath_Codec2HitTile(b *testing.B) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	tile := protocol.Rect{W: TileSize, H: TileSize}
	if _, err := e.Encode(ImageOp{Rect: tile, Pixels: photoPix(TileSize, TileSize, 4)}); err != nil {
		b.Fatal(err)
	}
	msg := &protocol.CachePaint{Rect: tile}
	for i := 0; i < 5000; i++ {
		msg.Key = e.FB.HashRect(tile)
		e.begin()
		e.emit(msg)
	}
	b.SetBytes(int64(tile.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.Key = e.FB.HashRect(tile)
		e.begin()
		e.emit(msg)
	}
}

// BenchmarkHotpath_Codec2MissTile measures the miss path: hash, failed
// probe, classification, literal encode, and the mirrored cache insert.
func BenchmarkHotpath_Codec2MissTile(b *testing.B) {
	e := NewEncoder(64, 64)
	e.EnableCodec2(0)
	tile := protocol.Rect{W: TileSize, H: TileSize}
	pix := photoPix(TileSize, TileSize, 5)
	b.SetBytes(int64(tile.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Perturb one pixel so every iteration is a genuine miss.
		pix[0] = protocol.Pixel(uint32(i)&0xffffff | 1)
		if _, err := e.Encode(ImageOp{Rect: tile, Pixels: pix}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpath_Codec2ReexposeFrame measures the steady-state win: a
// 256x192 region whose content alternates between two already-cached
// screens — every tile a hit — against the same frame through gen-1.
func BenchmarkHotpath_Codec2ReexposeFrame(b *testing.B) {
	const w, h = 256, 192
	run := func(b *testing.B, gen2 bool) {
		e := NewEncoder(w, h)
		if gen2 {
			e.EnableCodec2(0)
		}
		frames := [2][]protocol.Pixel{photoPix(w, h, 6), photoPix(w, h, 7)}
		r := protocol.Rect{W: w, H: h}
		for i := 0; i < 2; i++ { // seed both screens into the cache
			if _, err := e.Encode(ImageOp{Rect: r, Pixels: frames[i]}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(w * h * 4))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Encode(ImageOp{Rect: r, Pixels: frames[i%2]}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("gen2", func(b *testing.B) { run(b, true) })
	b.Run("gen1", func(b *testing.B) { run(b, false) })
}
