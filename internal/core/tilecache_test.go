package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"slim/internal/fb"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// tileAt paints a distinct solid color into the i-th 16x16 cell of f and
// returns the cell rectangle — a cheap way to mint tiles with distinct,
// reproducible content keys.
func tileAt(f *fb.Framebuffer, i int) protocol.Rect {
	cols := f.W / TileSize
	r := protocol.Rect{X: (i % cols) * TileSize, Y: (i / cols) * TileSize, W: TileSize, H: TileSize}
	f.Fill(r, protocol.RGB(uint8(i*29+1), uint8(i*53+7), uint8(i*97+13)))
	return r
}

func TestTileCacheLRUEviction(t *testing.T) {
	f := fb.New(128, 128)
	c := NewTileCache(4, true)
	keys := make([]uint64, 5)
	for i := range keys {
		keys[i] = c.Insert(f, tileAt(f, i))
		if keys[i] == 0 {
			t.Fatalf("tile %d: zero key", i)
		}
	}
	// Capacity 4, five inserts: the first (least recently used) is out.
	if c.Contains(keys[0]) {
		t.Error("oldest key survived past capacity")
	}
	for _, k := range keys[1:] {
		if !c.Contains(k) {
			t.Errorf("key %#x evicted out of LRU order", k)
		}
	}
	if c.Len() != 4 || c.Evictions() != 1 {
		t.Errorf("len=%d evictions=%d, want 4 and 1", c.Len(), c.Evictions())
	}
}

func TestTileCacheTouchProtects(t *testing.T) {
	f := fb.New(128, 128)
	c := NewTileCache(4, false)
	keys := make([]uint64, 4)
	for i := range keys {
		keys[i] = c.Insert(f, tileAt(f, i))
	}
	c.Touch(keys[0]) // now most recent; keys[1] is the tail
	c.Insert(f, tileAt(f, 4))
	if !c.Contains(keys[0]) {
		t.Error("touched key evicted")
	}
	if c.Contains(keys[1]) {
		t.Error("tail survived eviction")
	}
}

func TestTileCacheLookupValidatesGeometry(t *testing.T) {
	f := fb.New(64, 64)
	console := NewTileCache(8, true)
	server := NewTileCache(8, false)
	r := tileAt(f, 0)
	key := console.Insert(f, r)
	server.Insert(f, r)

	pix, ok := console.Lookup(key, TileSize, TileSize)
	if !ok {
		t.Fatal("console lookup missed a live key")
	}
	// Content addressing: the stored pixels must hash back to the key.
	if got := fb.HashPixels(pix, TileSize, TileSize); got != key {
		t.Fatalf("cached pixels hash to %#x, key is %#x", got, key)
	}
	if _, ok := console.Lookup(key, TileSize, TileSize-1); ok {
		t.Error("lookup with mismatched geometry hit")
	}
	if _, ok := console.Lookup(key^1, TileSize, TileSize); ok {
		t.Error("lookup of absent key hit")
	}
	// The server's key-only model never returns pixels.
	if _, ok := server.Lookup(key, TileSize, TileSize); ok {
		t.Error("key-only cache returned pixels")
	}
	if !server.Contains(key) {
		t.Error("key-only cache lost the key")
	}
}

func TestTileCacheResetForgets(t *testing.T) {
	f := fb.New(64, 64)
	c := NewTileCache(8, true)
	key := c.Insert(f, tileAt(f, 0))
	epoch := c.Epoch()
	c.Reset()
	if c.Len() != 0 || c.Contains(key) {
		t.Fatal("Reset kept entries")
	}
	if c.Epoch() == epoch {
		t.Fatal("Reset did not start a new generation")
	}
	// The cache must be fully usable in the new generation.
	k2 := c.Insert(f, tileAt(f, 1))
	if pix, ok := c.Lookup(k2, TileSize, TileSize); !ok || fb.HashPixels(pix, TileSize, TileSize) != k2 {
		t.Fatal("post-Reset insert unusable")
	}
}

// TestTileCacheRemoveKeepsStructure removes entries from the head, middle,
// and tail of the LRU list — the slot-recycling swap in freeSlot must fix
// every link and index it moves.
func TestTileCacheRemoveKeepsStructure(t *testing.T) {
	f := fb.New(128, 128)
	c := NewTileCache(8, true)
	keys := make([]uint64, 6)
	for i := range keys {
		keys[i] = c.Insert(f, tileAt(f, i))
	}
	for _, victim := range []int{2, 0, 5} { // middle, tail-era entry, head-era entry
		c.Remove(keys[victim])
		if c.Contains(keys[victim]) {
			t.Fatalf("key %d survived Remove", victim)
		}
	}
	c.Remove(keys[2]) // double-remove is a no-op
	if c.Len() != 3 {
		t.Fatalf("len=%d after removing 3 of 6", c.Len())
	}
	for _, i := range []int{1, 3, 4} {
		pix, ok := c.Lookup(keys[i], TileSize, TileSize)
		if !ok {
			t.Fatalf("survivor %d lost", i)
		}
		if fb.HashPixels(pix, TileSize, TileSize) != keys[i] {
			t.Fatalf("survivor %d pixels corrupted by slot recycling", i)
		}
	}
	// Refill to capacity through the recycled slots, then one past it.
	for i := 6; i < 12; i++ {
		c.Insert(f, tileAt(f, i))
	}
	if c.Len() != 8 {
		t.Fatalf("len=%d after refill, want capacity 8", c.Len())
	}
}

// TestTileCacheMirrors drives the retain and key-only variants through one
// identical operation sequence: the two must agree on membership, length,
// and eviction count at every step — the property the CACHE_PAINT protocol
// stands on.
func TestTileCacheMirrors(t *testing.T) {
	f := fb.New(128, 128)
	console := NewTileCache(5, true)
	server := NewTileCache(5, false)
	var keys []uint64
	step := func() {
		if server.Len() != console.Len() || server.Evictions() != console.Evictions() {
			t.Fatalf("mirror broke: server len=%d ev=%d, console len=%d ev=%d",
				server.Len(), server.Evictions(), console.Len(), console.Evictions())
		}
		for _, k := range keys {
			if server.Contains(k) != console.Contains(k) {
				t.Fatalf("membership of %#x diverged", k)
			}
		}
	}
	for i := 0; i < 9; i++ {
		r := tileAt(f, i)
		ks := server.Insert(f, r)
		kc := console.Insert(f, r)
		if ks != kc {
			t.Fatalf("insert %d: keys differ (%#x vs %#x)", i, ks, kc)
		}
		keys = append(keys, ks)
		if i%3 == 0 {
			server.Touch(keys[i/2])
			console.Touch(keys[i/2])
		}
		step()
	}
	server.Remove(keys[7])
	console.Remove(keys[7])
	step()
	server.Reset()
	console.Reset()
	step()
}

// TestNoteApplyChunking pins the mirrored insert rule's geometry: only
// whole TileSize×TileSize chunks are inserted, anchored at the write
// rectangle's origin; edge chunks and glyphs never are; FILL, CSCS and
// CACHE_PAINT never insert, and non-display messages are ignored.
func TestNoteApplyChunking(t *testing.T) {
	f := fb.New(64, 64)
	c := NewTileCache(64, true)
	set := func(r protocol.Rect, color func(x, y int) protocol.Pixel) *protocol.Set {
		pix := make([]protocol.Pixel, 0, r.Pixels())
		for y := r.Y; y < r.Y+r.H; y++ {
			for x := r.X; x < r.X+r.W; x++ {
				pix = append(pix, color(x, y))
			}
		}
		msg := &protocol.Set{Rect: r, Pixels: pix}
		if err := f.Apply(msg); err != nil {
			t.Fatal(err)
		}
		return msg
	}

	// 40x24 rect at (8,8): chunk columns at x=8,24,40 (widths 16,16,8),
	// rows at y=8,24 (heights 16,8). Only the two 16x16 chunks of the
	// first row are whole; the SET is of one color, so content
	// addressing collapses them onto one entry.
	r := protocol.Rect{X: 8, Y: 8, W: 40, H: 24}
	c.NoteApply(f, set(r, func(int, int) protocol.Pixel { return protocol.RGB(1, 2, 3) }))
	if c.Len() != 1 {
		t.Fatalf("len=%d after a uniform 40x24 SET, want its one whole-chunk content", c.Len())
	}
	whole := f.HashRect(protocol.Rect{X: 8, Y: 8, W: TileSize, H: TileSize})
	if pix, ok := c.Lookup(whole, TileSize, TileSize); !ok || fb.HashPixels(pix, TileSize, TileSize) != whole {
		t.Fatal("whole chunk not cached")
	}
	// An edge chunk (8 wide) is not cached under any geometry.
	edge := protocol.Rect{X: 40, Y: 8, W: 8, H: 16}
	if _, ok := c.Lookup(f.HashRect(edge), 8, 16); ok {
		t.Fatal("edge chunk cached")
	}
	// Non-uniform content in the same footprint inserts the two whole
	// chunks and nothing else.
	noisy := NewTileCache(64, true)
	noisy.NoteApply(f, set(r, func(x, y int) protocol.Pixel { return protocol.RGB(uint8(x*31), uint8(y*57), uint8(x^y)) }))
	if noisy.Len() != 2 {
		t.Fatalf("len=%d after noisy 40x24 write, want its 2 whole chunks", noisy.Len())
	}
	for _, x := range []int{8, 24} {
		if !noisy.Contains(f.HashRect(protocol.Rect{X: x, Y: 8, W: TileSize, H: TileSize})) {
			t.Fatalf("whole chunk at x=%d not cached", x)
		}
	}

	// A keystroke echo — one 8x16 glyph BITMAP — inserts nothing on either
	// end: the console's cache keeps pixels, the server's only keys.
	glyph := &protocol.Bitmap{Rect: protocol.Rect{X: 8, Y: 40, W: 8, H: 16}, Fg: protocol.RGB(255, 255, 255), Bits: make([]byte, 16)}
	for i := range glyph.Bits {
		glyph.Bits[i] = byte(0x3c ^ i)
	}
	if err := f.Apply(glyph); err != nil {
		t.Fatal(err)
	}
	for _, end := range []*TileCache{NewTileCache(64, true), NewTileCache(64, false)} {
		end.NoteApply(f, glyph)
		if end.Len() != 0 {
			t.Fatalf("an 8x16 glyph inserted %d entries (retain=%v), want none", end.Len(), end.retain)
		}
	}

	// The encoder sends solid tiles as FILL and never claims one, so a
	// FILL inserts nothing, even over content another command would cache.
	before := c.Len()
	c.NoteApply(f, &protocol.Fill{Rect: r, Color: 0})
	c.NoteApply(f, &protocol.CachePaint{Rect: protocol.Rect{W: TileSize, H: TileSize}, Key: whole})
	c.NoteApply(f, &protocol.CSCS{Src: r, Dst: r, Format: protocol.CSCS16})
	c.NoteApply(f, &protocol.Nack{From: 1, To: 2})
	if c.Len() != before {
		t.Fatalf("FILL/CACHE_PAINT/CSCS/non-display changed the cache (%d -> %d)", before, c.Len())
	}

	// A rect fully off screen inserts nothing; a partly off-screen rect
	// inserts the whole chunks of its clipped rectangle only, anchored at
	// the clipped origin.
	off := protocol.Rect{X: 100, Y: 100, W: 16, H: 16}
	c.NoteApply(f, &protocol.Set{Rect: off, Pixels: make([]protocol.Pixel, off.Pixels())})
	if c.Len() != before {
		t.Fatal("off-screen write rect inserted chunks")
	}
	part := set(protocol.Rect{X: 40, Y: 40, W: 32, H: 32}, func(x, y int) protocol.Pixel { return protocol.RGB(uint8(x), uint8(y), 9) })
	c.NoteApply(f, part)
	if _, ok := c.Lookup(f.HashRect(protocol.Rect{X: 40, Y: 40, W: TileSize, H: TileSize}), TileSize, TileSize); !ok || c.Len() != before+1 {
		t.Fatalf("a partly off-screen SET left %d new entries, want its one whole clipped chunk", c.Len()-before)
	}

	// Oversized direct Insert is the caller's bug: ignored with key 0.
	if k := c.Insert(f, protocol.Rect{X: 0, Y: 0, W: TileSize + 1, H: TileSize}); k != 0 {
		t.Fatalf("oversized insert returned key %#x, want 0", k)
	}
}

// distinctTiles paints n distinct solid tiles into a frame buffer wide
// enough to hold them and returns the tile rectangles: color i+1 in cell i,
// so keys stay distinct far past the 256 colors tileAt cycles through.
func distinctTiles(n int) (*fb.Framebuffer, []protocol.Rect) {
	const cols = 128
	f := fb.New(cols*TileSize, (n+cols-1)/cols*TileSize)
	rs := make([]protocol.Rect, n)
	for i := range rs {
		rs[i] = protocol.Rect{X: i % cols * TileSize, Y: i / cols * TileSize, W: TileSize, H: TileSize}
		f.Fill(rs[i], protocol.Pixel(i+1))
	}
	return f, rs
}

// TestTileCacheHeapGrowsWithUse: capacity is a cap, not an allocation. A
// console cache at the default 4,096 entries holds nothing for slots it
// has never filled — an echo terminal fills about 75 — and a filled slot
// costs its 1 KiB of pixels plus its index and list entry.
func TestTileCacheHeapGrowsWithUse(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations are in the heap figure")
	}
	f, rs := distinctTiles(100)
	before := liveHeap()
	c := NewTileCache(DefaultTileCacheEntries, true)
	fresh := liveHeap() - before
	for _, r := range rs {
		c.Insert(f, r)
	}
	used := liveHeap() - before
	t.Logf("fresh cache %d B, after %d inserts %d B", fresh, len(rs), used)
	if fresh >= 64<<10 {
		t.Errorf("a fresh %d-entry cache retains %d KiB, want under 64 KiB", c.Cap(), fresh>>10)
	}
	if used >= 192<<10 {
		t.Errorf("%d entries retain %d KiB, want under 192 KiB", c.Len(), used>>10)
	}
	runtime.KeepAlive(c)
	runtime.KeepAlive(f)
}

// TestTileCacheZeroAllocAtCapacity: once every slot has been filled, the
// cache allocates nothing — not to evict its LRU tail for a new tile, not
// to refill a slot Remove freed, not to refill after a Reset.
func TestTileCacheZeroAllocAtCapacity(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const capacity = DefaultTileCacheEntries
	f, rs := distinctTiles(2 * capacity)
	c := NewTileCache(capacity, true)
	// Cycling through twice capacity evicts on every insert; a few laps
	// first let the index settle under churn.
	next := 0
	insert := func() {
		c.Insert(f, rs[next])
		next = (next + 1) % len(rs)
	}
	for i := 0; i < 4*len(rs); i++ {
		insert()
	}
	if c.Len() != capacity {
		t.Fatalf("len=%d after warm-up, want capacity %d", c.Len(), capacity)
	}
	if a := testing.AllocsPerRun(4*capacity, insert); a != 0 {
		t.Errorf("insert with eviction allocates %.2f objects/op, want 0", a)
	}
	live := rs[(next+len(rs)-capacity/2)%len(rs)] // inserted capacity/2 ago
	if a := testing.AllocsPerRun(1000, func() {
		c.Remove(f.HashRect(live))
		c.Insert(f, live)
	}); a != 0 {
		t.Errorf("Remove + re-Insert allocates %.2f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() {
		c.Reset()
		for i := 0; i < capacity; i++ {
			insert()
		}
	}); a != 0 {
		t.Errorf("Reset + refill allocates %.2f objects per refill, want 0", a)
	}
	if c.Len() != capacity {
		t.Fatalf("len=%d after refills, want capacity %d", c.Len(), capacity)
	}
}

// TestTileCacheRandomAgainstModel drives a small retaining cache through a
// random Insert/Touch/Lookup/Remove/Reset sequence next to a plain model —
// an MRU-first key list and a map of the pixels each key was inserted
// with. At every step the cache must hold exactly the model's keys, every
// Lookup must return exactly the inserted pixels, and no two live entries
// may share a pixel buffer (slots are created lazily and swapped by
// freeSlot; an alias would let one insert overwrite another entry).
func TestTileCacheRandomAgainstModel(t *testing.T) {
	const capacity, pool = 16, 40
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := fb.New(8*TileSize, 8*TileSize)
		for i := range f.Pix {
			f.Pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
		}
		// A pool of full and edge-sized tiles, each with its own content.
		rs := make([]protocol.Rect, pool)
		keys := make([]uint64, pool)
		at := make(map[uint64]protocol.Rect, pool)
		want := make(map[uint64][]protocol.Pixel, pool)
		for i := range rs {
			w, h := TileSize, TileSize
			if i%5 == 0 {
				w = 8
			}
			if i%7 == 0 {
				h = 12
			}
			rs[i] = protocol.Rect{X: i % 8 * TileSize, Y: i / 8 * TileSize, W: w, H: h}
			keys[i] = f.HashRect(rs[i])
			at[keys[i]] = rs[i]
			want[keys[i]] = f.ReadRect(rs[i])
		}
		c := NewTileCache(capacity, true)
		var model []uint64 // MRU first
		find := func(k uint64) int {
			for i, m := range model {
				if m == k {
					return i
				}
			}
			return -1
		}
		front := func(k uint64) {
			if i := find(k); i >= 0 {
				model = append(model[:i], model[i+1:]...)
			}
			model = append([]uint64{k}, model...)
		}
		for step := 0; step < 3000; step++ {
			p := rng.Intn(pool)
			r, k := rs[p], keys[p]
			switch op := rng.Intn(20); {
			case op < 10:
				if got := c.Insert(f, r); got != k {
					t.Fatalf("seed %d step %d: Insert returned %#x, want %#x", seed, step, got, k)
				}
				if find(k) < 0 && len(model) == capacity {
					model = model[:capacity-1]
				}
				front(k)
			case op < 13:
				c.Touch(k)
				if find(k) >= 0 {
					front(k)
				}
			case op < 16:
				pix, ok := c.Lookup(k, r.W, r.H)
				if ok != (find(k) >= 0) {
					t.Fatalf("seed %d step %d: Lookup hit=%v, model holds it: %v", seed, step, ok, !ok)
				}
				if ok {
					front(k)
					if !slices.Equal(pix, want[k]) {
						t.Fatalf("seed %d step %d: Lookup returned pixels other than the inserted ones", seed, step)
					}
				}
			case op < 19:
				c.Remove(k)
				if i := find(k); i >= 0 {
					model = append(model[:i], model[i+1:]...)
				}
			default:
				c.Reset()
				model = model[:0]
			}

			if c.Len() != len(model) {
				t.Fatalf("seed %d step %d: len=%d, model %d", seed, step, c.Len(), len(model))
			}
			for _, k := range keys {
				if c.Contains(k) != (find(k) >= 0) {
					t.Fatalf("seed %d step %d: membership of %#x diverged from the model", seed, step, k)
				}
			}
			// Looking every entry up from LRU to MRU moves each to the
			// front in turn, which leaves the recency order as it was.
			backing := make(map[*protocol.Pixel]uint64, len(model))
			for i := len(model) - 1; i >= 0; i-- {
				k := model[i]
				r := at[k]
				pix, ok := c.Lookup(k, r.W, r.H)
				if !ok || !slices.Equal(pix, want[k]) {
					t.Fatalf("seed %d step %d: live entry %#x lost or corrupted", seed, step, k)
				}
				if other, dup := backing[&pix[0]]; dup {
					t.Fatalf("seed %d step %d: entries %#x and %#x share a pixel buffer", seed, step, k, other)
				}
				backing[&pix[0]] = k
			}
		}
	}
}
