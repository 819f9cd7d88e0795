package core

import (
	"slim/internal/fb"
	"slim/internal/protocol"
)

// The gen-2 codec's dirty-tile cache. Both ends of the wire run one:
// the server keeps a key-only model of what the console holds, the
// console keeps keys plus pixels. Because every entry is inserted by the
// same deterministic rule on both sides — after each applied display
// command other than FILL, CSCS and CACHE_PAINT, hash every whole
// TileSize×TileSize chunk of the command's write rectangle (NoteApply;
// edge chunks and glyphs are never cached) — the two caches stay
// mirrored as long as the command stream is delivered. Loss only
// makes the console miss inserts, which turns a later server claim into a
// CACHE_PAINT miss, a NACK, and a repaint: the standard §2.2 recovery
// path. No invalidation handshake exists or is needed; keys are content
// hashes, so an entry can never paint wrong pixels, only be absent.
const (
	// TileSize is the cache chunk edge in pixels. 16×16 = 256 pixels =
	// 768 wire bytes keeps a full literal chunk inside one MTU-sized SET
	// command, so every cache miss maps to exactly one display command
	// and the mirrored insert rule stays per-command.
	TileSize = 16

	// DefaultTileCacheEntries is the capacity both sides assume when a
	// console advertises CapCachePaint without further negotiation:
	// 4096 entries × 1 KiB of pixels caps the console's cache at about
	// 4 MiB, well inside the 8 MB a Sun Ray-class terminal carries beyond
	// its frame buffer. The cap is not an allocation: a cache holds only
	// the slots it has filled. Server and console MUST agree on capacity
	// or their LRU eviction orders drift (harmless, but each drift costs
	// a NACK).
	DefaultTileCacheEntries = 4096
)

// tcEntry is one cache slot. Slots are created the first time the cache
// fills them and linked into an intrusive LRU list by index; a slot keeps
// its pixel buffer when its entry is evicted, removed or reset, so once
// the slots are warm insertion and eviction allocate nothing.
type tcEntry struct {
	key        uint64
	epoch      uint32
	w, h       uint16
	prev, next int32
	pix        []protocol.Pixel // nil on the server's key-only model
}

// TileCache is a bounded, deterministic LRU of content-hashed tiles.
// It is not safe for concurrent use; each encoder or console owns one.
type TileCache struct {
	retain bool
	cap    int
	epoch  uint32
	idx    map[uint64]int32
	ent    []tcEntry
	head   int32 // most recently used, -1 when empty
	tail   int32 // least recently used
	n      int

	inserts   uint64
	evictions uint64
}

// NewTileCache returns a cache with the given entry capacity. retain
// selects the console variant, which keeps each tile's pixels; the
// server passes false and stores keys only. Capacity bounds the entry
// count, not what is allocated: the index, the slots and (retaining)
// each slot's 1 KiB of pixels grow as slots are first filled.
func NewTileCache(capacity int, retain bool) *TileCache {
	return &TileCache{
		retain: retain,
		cap:    capOrDefault(capacity),
		idx:    make(map[uint64]int32),
		head:   -1,
		tail:   -1,
	}
}

// capOrDefault maps a non-positive capacity to DefaultTileCacheEntries.
func capOrDefault(capacity int) int {
	if capacity <= 0 {
		return DefaultTileCacheEntries
	}
	return capacity
}

// Len reports the number of live entries.
func (c *TileCache) Len() int { return c.n }

// Cap reports the entry capacity.
func (c *TileCache) Cap() int { return c.cap }

// Epoch reports the current generation, bumped by every Reset.
func (c *TileCache) Epoch() uint32 { return c.epoch }

// Evictions reports how many entries LRU pressure has pushed out.
func (c *TileCache) Evictions() uint64 { return c.evictions }

// Reset starts a new generation: the cache forgets everything, in O(n)
// over live entries, keeping every slot and pixel buffer allocated. Both
// sides reset at session attach (and the server again on recovery
// repaints), which is the only moment the mirrored LRU orders need
// re-synchronizing — a fresh console, a hotdesk move, or a migrated
// session all start from the same empty generation and an immediately
// following full repaint re-seeds both caches identically.
func (c *TileCache) Reset() {
	c.epoch++
	clear(c.idx)
	c.head, c.tail, c.n = -1, -1, 0
}

// Contains reports whether key is cached, without touching LRU order.
func (c *TileCache) Contains(key uint64) bool {
	_, ok := c.idx[key]
	return ok
}

// Touch moves key to the front of the LRU order. Both sides call it for
// every CACHE_PAINT (the server when it emits one, the console when it
// applies one) so reuse keeps hot tiles resident.
func (c *TileCache) Touch(key uint64) {
	if i, ok := c.idx[key]; ok {
		c.moveFront(i)
	}
}

// Lookup returns the pixels and geometry cached under key, touching the
// entry. The console's apply path uses it; ok is false on the key-only
// server variant, on a missing key, or when the caller's rectangle does
// not match the entry's geometry (a hash collision across sizes cannot
// happen — dimensions are folded into the key — so a mismatch means the
// claim is stale and must miss).
func (c *TileCache) Lookup(key uint64, w, h int) ([]protocol.Pixel, bool) {
	i, ok := c.idx[key]
	if !ok || !c.retain {
		return nil, false
	}
	e := &c.ent[i]
	if int(e.w) != w || int(e.h) != h {
		return nil, false
	}
	c.moveFront(i)
	return e.pix[:w*h], true
}

// Insert caches the current content of the clipped rectangle r of f,
// returning the content key. An existing entry is refreshed (touched);
// at capacity the LRU tail is recycled. Rectangles larger than one tile
// are the caller's bug and are ignored (key 0).
func (c *TileCache) Insert(f *fb.Framebuffer, r protocol.Rect) uint64 {
	r = r.Intersect(f.Bounds())
	if r.Empty() || r.W > TileSize || r.H > TileSize {
		return 0
	}
	key := f.HashRect(r)
	if i, ok := c.idx[key]; ok {
		// Content addressing makes the stored pixels equal to the new
		// ones by construction; only the recency changes.
		c.ent[i].epoch = c.epoch
		c.moveFront(i)
		return key
	}
	var i int32
	if c.n < c.cap {
		i = int32(c.n)
		c.n++
		if int(i) == len(c.ent) {
			c.ent = append(c.ent, tcEntry{})
		}
		if c.retain && c.ent[i].pix == nil {
			c.ent[i].pix = make([]protocol.Pixel, 0, TileSize*TileSize)
		}
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.idx, c.ent[i].key)
		c.evictions++
	}
	e := &c.ent[i]
	e.key = key
	e.epoch = c.epoch
	e.w, e.h = uint16(r.W), uint16(r.H)
	if c.retain {
		f.ReadRectInto(e.pix[:0], r)
	}
	c.pushFront(i)
	c.idx[key] = i
	c.inserts++
	return key
}

// Remove drops key from the cache. The server calls it when a NACK
// covers a CACHE_PAINT it emitted: the console evidently does not hold
// the entry, so the recovery repaint must re-send pixels (which re-seeds
// both caches) instead of claiming the same hit again.
func (c *TileCache) Remove(key uint64) {
	i, ok := c.idx[key]
	if !ok {
		return
	}
	c.unlink(i)
	delete(c.idx, key)
	c.freeSlot(i)
}

// freeSlot returns slot i to the allocatable pool by moving the highest
// live slot into it, keeping live slots contiguous in [0, n).
func (c *TileCache) freeSlot(i int32) {
	last := int32(c.n - 1)
	if i != last {
		// Move entry `last` into slot i, fixing list links and index.
		// The pixel buffers swap rather than alias: every filled slot
		// keeps exactly one.
		pix := c.ent[i].pix
		c.ent[i] = c.ent[last]
		c.ent[last].pix = pix
		c.idx[c.ent[i].key] = i
		if c.ent[i].prev >= 0 {
			c.ent[c.ent[i].prev].next = i
		} else if c.head == last {
			c.head = i
		}
		if c.ent[i].next >= 0 {
			c.ent[c.ent[i].next].prev = i
		} else if c.tail == last {
			c.tail = i
		}
	}
	c.n--
}

// moveFront makes slot i the most recently used.
func (c *TileCache) moveFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

func (c *TileCache) unlink(i int32) {
	e := &c.ent[i]
	if e.prev >= 0 {
		c.ent[e.prev].next = e.next
	} else if c.head == i {
		c.head = e.next
	}
	if e.next >= 0 {
		c.ent[e.next].prev = e.prev
	} else if c.tail == i {
		c.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (c *TileCache) pushFront(i int32) {
	e := &c.ent[i]
	e.prev, e.next = -1, c.head
	if c.head >= 0 {
		c.ent[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// NoteApply runs the mirrored cache-maintenance step after msg has been
// applied to f: every whole TileSize×TileSize chunk of the command's write
// rectangle (chunks anchor at the rectangle's origin) is inserted with its
// current content. Edge chunks that run smaller are not: a claim names a
// tile the encoder probes, and an edge chunk of one command — a glyph, a
// sliver of a window — is almost never one, so hashing it on both ends
// paid for an entry nothing used. FILL is excluded — the encoder sends
// every solid tile as a run of FILL and never claims one — and so is CSCS
// — video churn would only thrash the LRU, and its lossy output is poor
// cache currency — and CACHE_PAINT itself only touches (done at
// claim/apply time), otherwise a hit would reinsert what it just used.
// The rule depends on nothing but the message and the frame buffer, which
// is what keeps the server and console caches in lockstep without any
// cache state on the wire.
func (c *TileCache) NoteApply(f *fb.Framebuffer, msg protocol.Message) {
	switch msg.(type) {
	case *protocol.Fill, *protocol.CachePaint, *protocol.CSCS:
		return
	}
	if !msg.Type().IsDisplay() {
		return
	}
	w := WriteRect(msg).Intersect(f.Bounds())
	for y := w.Y; y+TileSize <= w.Y+w.H; y += TileSize {
		for x := w.X; x+TileSize <= w.X+w.W; x += TileSize {
			c.Insert(f, protocol.Rect{X: x, Y: y, W: TileSize, H: TileSize})
		}
	}
}
