package core

import (
	"slim/internal/fb"
	"slim/internal/protocol"
)

// Per-tile content classification for the gen-2 codec. Gen-1 analyzed a
// whole damage rectangle at once, so one photograph corner forced an
// entire mixed region to literal SET pixels. Gen-2 decides per cache
// tile, with two cheap signals computed in one pass over the tile
// (fb.TileStats): a capped distinct-color count and a distinct-row-hash
// count. The classes and their encodings:
//
//	solid      1 color                          → FILL, one per run of
//	                                              solid tiles of that color
//	                                              in a tile row (found by
//	                                              encodeRegion2 before any
//	                                              cache probe)
//	text-like  ≤2 colors, or a limited palette  → BITMAP when bicolor,
//	           with heavily repeated rows         SET otherwise
//	           (text, UI chrome, dithers)
//	photo      many colors, rows all distinct   → SET
//	churn      photo content in a tile that is  → CSCS (lossy pays only
//	           being rewritten at video rates     here: the pixels are
//	                                              about to change again)
//
// Churn is judged by the server-side ChurnTracker, not by content: only
// sustained rewrites of the same screen cell (a video, an animation)
// qualify, so scrolls and re-exposures — whose value is cacheability —
// never degrade to lossy encoding.

// TileClass is the gen-2 classifier's verdict for one cache tile.
type TileClass uint8

const (
	ClassSolid TileClass = iota
	ClassText
	ClassPhoto
	ClassChurn
	numTileClasses
)

var tileClassNames = [numTileClasses]string{"solid", "text", "photo", "churn"}

// String returns the class label used in slim_codec2_tiles_total.
func (c TileClass) String() string {
	if int(c) < len(tileClassNames) {
		return tileClassNames[c]
	}
	return "unknown"
}

// classifyColorCap bounds the distinct-color scan: more than 8 colors in
// a 256-pixel tile reads as continuous tone.
const classifyColorCap = 8

// ClassifyTile classifies the current content of one cache tile. hot is
// the ChurnTracker's verdict for the tile's screen cell; it only
// reclassifies tiles that would otherwise be photo, because lossy
// encoding never pays for palette-limited content (a blinking cursor is
// churn-by-rate but must stay pixel exact — and it cache-hits anyway).
func ClassifyTile(f *fb.Framebuffer, r protocol.Rect, hot bool) TileClass {
	colors, uniqueRows := f.TileStats(r, classifyColorCap)
	switch {
	case colors <= 1:
		return ClassSolid
	case colors == 2:
		return ClassText
	case colors <= classifyColorCap && uniqueRows <= (r.H+1)/2:
		// Limited palette with repeated row structure: dithered
		// gradients, toolbars, rasterized text with interline gaps.
		return ClassText
	case hot:
		return ClassChurn
	default:
		return ClassPhoto
	}
}

// ChurnTracker detects video-rate rewrites per screen cell. It is server
// side only — its one wire-visible effect is choosing CSCS for hot photo
// tiles, and CSCS is an ordinary gen-1 command — so nothing about churn
// needs mirroring on the console.
//
// Cells are TileSize-aligned. A cell's counter bumps once per SET or
// CSCS command overlapping it (the content-replacing commands; FILL,
// BITMAP, and COPY repaint or move pixels the cache should keep), and
// all counters halve every churnDecayEvery bumped commands. Video
// playback touches its cells on nearly every command the session emits
// while it plays, so those counters climb; a scroll or re-expose touches
// a given cell a couple of times per window and stays cold.
type ChurnTracker struct {
	w, h  int // cells per row / column
	cells []uint8
	cmds  int
}

const (
	// churnDecayEvery is the command-count window: all counters halve
	// after this many bumped commands. The window must comfortably exceed
	// the SET-command burst one screen update produces (a 512-wide scroll
	// strip alone is ~100 tile SETs), or a busy step decays counters as
	// fast as it accumulates them and nothing ever reads hot.
	churnDecayEvery = 256
	// ChurnHotThreshold marks a cell hot. A counter under steady +1-per-
	// frame rewrites converges to about twice the decay period measured in
	// frames, so persistent video crosses this within ~8 frames even on a
	// busy screen, while a scroll pass (whose strip cells miss only until
	// the cache warms — hits don't bump) peaks well below it.
	ChurnHotThreshold = 8
)

// NewChurnTracker covers a w×h-pixel screen.
func NewChurnTracker(w, h int) *ChurnTracker {
	cw := (w + TileSize - 1) / TileSize
	ch := (h + TileSize - 1) / TileSize
	return &ChurnTracker{w: cw, h: ch, cells: make([]uint8, cw*ch)}
}

// Bump records one content-replacing command over rectangle r.
func (t *ChurnTracker) Bump(r protocol.Rect) {
	if r.Empty() {
		return
	}
	x0, y0 := r.X/TileSize, r.Y/TileSize
	x1, y1 := (r.X+r.W-1)/TileSize, (r.Y+r.H-1)/TileSize
	x0, y0 = max(x0, 0), max(y0, 0)
	x1, y1 = min(x1, t.w-1), min(y1, t.h-1)
	for cy := y0; cy <= y1; cy++ {
		row := t.cells[cy*t.w : (cy+1)*t.w]
		for cx := x0; cx <= x1; cx++ {
			if row[cx] < 255 {
				row[cx]++
			}
		}
	}
	t.cmds++
	if t.cmds >= churnDecayEvery {
		t.cmds = 0
		for i, v := range t.cells {
			t.cells[i] = v >> 1
		}
	}
}

// Hot reports whether the cell containing (x, y) is being rewritten at
// video rates.
func (t *ChurnTracker) Hot(x, y int) bool {
	cx, cy := x/TileSize, y/TileSize
	if cx < 0 || cy < 0 || cx >= t.w || cy >= t.h {
		return false
	}
	return t.cells[cy*t.w+cx] >= ChurnHotThreshold
}

// Reset clears all counters (session attach).
func (t *ChurnTracker) Reset() {
	clear(t.cells)
	t.cmds = 0
}
