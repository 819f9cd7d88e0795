package core

import (
	"slices"

	"slim/internal/fb"
	"slim/internal/protocol"
)

// Gen-2 codec: the encoder-side tile path. Where gen-1 lowered each
// damage rectangle to one command family chosen by whole-rect analysis,
// gen-2 walks the rectangle in TileSize chunks. A tile of one color joins
// a run of FILL; any other tile first asks the mirrored tile cache
// whether the console has seen exactly this content before — a hit costs
// 28 wire bytes instead of a pixel re-send — and only on a miss is
// classified and encoded with the cheapest command for its content class.
// The cache keys double as the CACHE_PAINT wire payload; see
// protocol.CachePaint for the recovery story that keeps all of this soft
// state.

// Codec2Stats is the gen-2 accounting, the committed-bench twin of
// CommandStats.
type Codec2Stats struct {
	// Hits and Misses count tile cache probes on the encode path; solid
	// tiles are never probed.
	Hits, Misses uint64
	// SavedBytes is wire bytes avoided by hits, measured against a
	// literal re-send of the tile (SET framing, 3 bytes per pixel).
	SavedBytes int64
	// Tiles counts tiles per content class: every solid tile, and the
	// classified (miss-path) tiles of the other classes.
	Tiles [numTileClasses]uint64
	// Resets counts cache generation bumps (attach, recovery repaint).
	Resets uint64
}

// HitRatio reports hits / (hits + misses), 0 when no probes happened.
func (s *Codec2Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Codec2 is the gen-2 state hanging off an Encoder: the key-only mirror
// of the console's tile cache, the churn tracker, and scratch slabs for
// the per-tile miss path.
type Codec2 struct {
	cache *TileCache
	churn *ChurnTracker
	stats Codec2Stats

	pix           []protocol.Pixel // tile readback slab
	lastEvictions uint64
}

// EnableCodec2 switches the encoder onto the gen-2 tile path with a
// fresh cache of the given entry capacity (0 selects
// DefaultTileCacheEntries, the capacity CapCachePaint implies). The
// server calls this at session attach when — and only when — the console
// advertised CapCachePaint; the cache starts a new generation on every
// call, matching the console's reset-on-attach, so both sides begin
// mirrored and empty.
func (e *Encoder) EnableCodec2(capacity int) {
	if e.codec2 != nil && e.codec2.cache.Cap() == capOrDefault(capacity) {
		e.ResetCodec2()
		return
	}
	e.codec2 = &Codec2{
		cache: NewTileCache(capacity, false),
		churn: NewChurnTracker(e.FB.W, e.FB.H),
	}
	e.codec2.stats.Resets++
}

// DisableCodec2 reverts the encoder to the gen-1 command path (console
// without the capability bit, or codec2 switched off server-wide).
func (e *Encoder) DisableCodec2() { e.codec2 = nil }

// Codec2Enabled reports whether the gen-2 tile path is active.
func (e *Encoder) Codec2Enabled() bool { return e.codec2 != nil }

// Codec2Stats returns a copy of the gen-2 accounting (zero value when
// gen-2 is off).
func (e *Encoder) Codec2Stats() Codec2Stats {
	if e.codec2 == nil {
		return Codec2Stats{}
	}
	return e.codec2.stats
}

// ResetCodec2 starts a new cache generation and clears churn state. Runs
// at attach (via EnableCodec2) and before full-screen recovery repaints,
// the moments console cache state stops being trustworthy.
func (e *Encoder) ResetCodec2() {
	if e.codec2 == nil {
		return
	}
	e.codec2.cache.Reset()
	e.codec2.churn.Reset()
	e.codec2.stats.Resets++
}

// noteEmit is the server half of the mirrored cache-maintenance rule,
// run from emit() for every emitted command in sequence order — the
// same order the console applies them. CACHE_PAINT touches the entry it
// claimed; SET and CSCS bump the churn tracker (the content-replacing
// commands); everything except FILL, CSCS and CACHE_PAINT inserts its
// write rectangle's whole tiles.
func (c2 *Codec2) noteEmit(f *fb.Framebuffer, msg protocol.Message) {
	switch m := msg.(type) {
	case *protocol.CachePaint:
		c2.cache.Touch(m.Key)
		return
	case *protocol.CSCS:
		c2.churn.Bump(m.Dst)
		return
	case *protocol.Set:
		c2.churn.Bump(m.Rect)
	}
	c2.cache.NoteApply(f, msg)
}

// encodeRegion2 is the gen-2 replacement for encodeRegion: it reads the
// (already updated) authoritative frame buffer in place, tile by tile, so
// fresh paints and repaints alike stage no copy of the region — by the
// time any region is encoded the frame buffer holds the truth, and
// hashing must see exactly what the console will hold after applying the
// command.
//
// Solid tiles come first: a tile of one color is never probed or hashed,
// and consecutive solid tiles of one color in a tile row leave as one
// FILL, emitted when the run ends (at a tile that is not solid, a color
// change, or the row's end). Runs never span rows, so a blank screen is
// one FILL per tile row. A repayment (Repay) stops only where a run ends.
func (e *Encoder) encodeRegion2(out []Datagram, r protocol.Rect, repay bool) (_ []Datagram, rows, band protocol.Rect) {
	r = r.Intersect(e.FB.Bounds())
	if r.Empty() {
		return out, r, band
	}
	// One command per tile is the most a region can take; a whole screen
	// is mostly runs, so it starts at a window's worth and grows.
	out = slices.Grow(out, min(ceilDiv(r.W, TileSize)*ceilDiv(r.H, TileSize), 256))
	for y := r.Y; y < r.Y+r.H; y += TileSize {
		th := min(TileSize, r.Y+r.H-y)
		var run protocol.Rect // the pending FILL, empty when none
		var color protocol.Pixel
		for x := r.X; x < r.X+r.W; x += TileSize {
			t := protocol.Rect{X: x, Y: y, W: min(TileSize, r.X+r.W-x), H: th}
			c, solid := e.FB.Uniform(t)
			if solid && !run.Empty() && c == color {
				run.W += t.W
				continue
			}
			out = e.endRun(out, &run, color)
			if repay && len(out) > 0 && e.left < TileWire {
				return out, protocol.Rect{X: r.X, Y: r.Y, W: r.W, H: y - r.Y}, protocol.Rect{X: r.X, Y: y, W: x - r.X, H: th}
			}
			if solid {
				run, color = t, c
			} else {
				out = e.encodeTile(out, t)
			}
		}
		out = e.endRun(out, &run, color)
	}
	return out, r, band
}

// endRun emits and counts the pending run of solid tiles, if any: one FILL.
func (e *Encoder) endRun(out []Datagram, run *protocol.Rect, c protocol.Pixel) []Datagram {
	if run.Empty() {
		return out
	}
	n := ceilDiv(run.W, TileSize)
	e.codec2.stats.Tiles[ClassSolid] += uint64(n)
	if e.Metrics != nil {
		e.Metrics.codec2Tiles[ClassSolid].Add(int64(n))
	}
	out = append(out, e.emit(&protocol.Fill{Rect: *run, Color: c}))
	*run = protocol.Rect{}
	return out
}

// encodeTile emits the cheapest encoding for one cache tile that is not
// solid: a CACHE_PAINT on a hit, else the per-class command. The hit
// branch is the hot path and allocates nothing beyond the message itself.
func (e *Encoder) encodeTile(out []Datagram, t protocol.Rect) []Datagram {
	c2 := e.codec2
	key := e.FB.HashRect(t)
	if key != 0 && c2.cache.Contains(key) {
		c2.stats.Hits++
		saved := int64(protocol.HeaderSize + 8 + 3*t.Pixels() - (protocol.HeaderSize + 16))
		c2.stats.SavedBytes += saved
		if e.Metrics != nil {
			e.Metrics.codec2Hits.Inc()
			e.Metrics.codec2SavedBytes.Add(saved)
		}
		return append(out, e.emit(&protocol.CachePaint{Rect: t, Key: key}))
	}
	c2.stats.Misses++
	hot := c2.churn.Hot(t.X, t.Y)
	class := ClassifyTile(e.FB, t, hot)
	c2.stats.Tiles[class]++
	if e.Metrics != nil {
		e.Metrics.codec2Misses.Inc()
		e.Metrics.codec2Tiles[class].Inc()
	}
	c2.pix = e.FB.ReadRectInto(c2.pix, t)
	switch class {
	case ClassText:
		if fg, bg, bits, ok := e.analyzeBicolor(t, c2.pix); ok {
			out = e.encodeBitmap(out, t, fg, bg, bits)
		} else {
			out = e.encodeSet(out, t, c2.pix)
		}
	case ClassChurn:
		var ok bool
		if out, ok = e.encodeTileCSCS(out, t, c2.pix); !ok {
			out = e.encodeSet(out, t, c2.pix)
		}
	default: // ClassPhoto
		out = e.encodeSet(out, t, c2.pix)
	}
	if c2.cache.Evictions() != c2.lastEvictions {
		if e.Metrics != nil {
			e.Metrics.codec2Evictions.Add(int64(c2.cache.Evictions() - c2.lastEvictions))
		}
		c2.lastEvictions = c2.cache.Evictions()
	}
	return out
}

// encodeTileCSCS ships one churning photo tile as lossy CSCS — the "only
// where it pays" case: the pixels are being rewritten at video rates, so
// fidelity that will not survive the next frame is traded for 2 bytes
// per pixel and a cheaper console decode. The chroma subsampling needs
// even geometry; edge tiles fall back to SET (ok=false). The server
// paints the reconstruction of the codes it packed into its own frame
// buffer, keeping the authoritative state bit-identical to the console's.
func (e *Encoder) encodeTileCSCS(out []Datagram, t protocol.Rect, pix []protocol.Pixel) ([]Datagram, bool) {
	if t.W < 2 || t.H < 2 || t.W%2 != 0 || t.H%2 != 0 {
		return out, false
	}
	msg := &protocol.CSCS{Src: t, Dst: t, Format: protocol.CSCS16}
	if _, err := e.FB.PaintAndPackCSCS(nil, msg, pix); err != nil {
		return out, false
	}
	return append(out, e.emit(msg)), true
}
