package workload

import (
	"fmt"
	"math"
	"strings"

	"slim/internal/core"
	"slim/internal/protocol"
	"slim/internal/stats"
)

// Codec gen-2 drives: deterministic scroll / re-expose / mixed / window op streams
// for the bytes-on-wire comparison (the Figure 8-shaped raw vs gen-1 vs
// gen-2 table). Unlike the Table 2 session models, these are not
// statistical user models — they are adversarially *repetitive* screens,
// the content pattern the dirty-tile cache exists for: a document scrolled
// back and forth, a menu popped over a window and dismissed. Every drive
// is a pure function of its seed, so two encoders fed the same drive see
// the identical op stream and the committed BENCH_codec2.json can be
// validated bit-for-bit.

// DriveNames lists the codec-comparison workloads in report order.
var DriveNames = []string{"scroll", "reexpose", "mixed", "window"}

// Drive produces one deterministic rendering-op stream. Step must be
// called with i = 0, 1, 2, ... in order (drives carry scroll positions and
// overlay phases between steps). Steps < Warmup prime the screen and the
// tile caches; the comparison tables account bytes only from Warmup on, so
// the numbers describe the steady workload, not the one-time first paint.
type Drive struct {
	Name   string
	Steps  int
	Warmup int
	step   func(i int) []core.Op
}

// Step returns the ops for step i.
func (d *Drive) Step(i int) []core.Op { return d.step(i) }

// NewDrive builds the named drive. Same name+seed, same op stream.
func NewDrive(name string, seed uint64) (*Drive, error) {
	switch name {
	case "scroll":
		return newScrollDrive(seed), nil
	case "reexpose":
		return newReexposeDrive("reexpose", seed, 320, 240), nil
	case "mixed":
		return newMixedDrive(seed), nil
	case "window":
		// A 100×70 window: its damage is not a multiple of core.TileSize,
		// so each restore ends in a column and a row of edge tiles, which
		// the mirrored insert rule never caches and which re-send their
		// pixels every round. It prices what caching only whole tiles
		// gives up.
		return newReexposeDrive("window", seed, 100, 70), nil
	}
	return nil, fmt.Errorf("workload: unknown drive %q (want scroll|reexpose|mixed|window)", name)
}

// Document geometry shared by the drives. The band height is a multiple of
// the strip height so some strips land entirely inside one content class,
// and the strip height is a multiple of core.TileSize so every scroll
// position re-exposes the same tile-aligned document chunks.
const (
	driveBandH  = 64
	scrollViewW = 512
	scrollViewH = 384
	scrollStrip = 48  // rows per scroll step; 3 tiles
	scrollSpan  = 576 // total scroll travel; document = view + span rows
)

// document synthesizes a w×h pixel page of horizontal content bands —
// photo-dominant with text and solid bands mixed in, so the classifier
// sees all its tile classes and the byte accounting is dominated by the
// expensive (literal SET) content, as real image-heavy pages are.
func document(seed uint64, w, h int) []protocol.Pixel {
	rng := stats.NewRNG(seed)
	pix := make([]protocol.Pixel, w*h)
	for y0 := 0; y0 < h; y0 += driveBandH {
		rows := min(driveBandH, h-y0)
		band := y0 / driveBandH
		switch band % 5 {
		case 2: // solid panel
			c := uiPalette[band%len(uiPalette)]
			for i := y0 * w; i < (y0+rows)*w; i++ {
				pix[i] = c
			}
		case 4: // bicolor text
			tc := textColors[band%len(textColors)]
			for y := y0; y < y0+rows; y++ {
				for x := 0; x < w; x++ {
					if rng.Float64() < 0.3 {
						pix[y*w+x] = tc[0]
					} else {
						pix[y*w+x] = tc[1]
					}
				}
			}
		default: // continuous tone
			copy(pix[y0*w:], photoPixels(rng, w, rows))
		}
	}
	return pix
}

// docRows returns rows [row0, row0+n) of a w-wide document as a pixel
// slice (aliases the document; callers treat it as read-only).
func docRows(doc []protocol.Pixel, w, row0, n int) []protocol.Pixel {
	return doc[row0*w : (row0+n)*w]
}

// docRect copies the w×h sub-rectangle at (x0, y0) out of a docW-wide
// document into a fresh row-major slice.
func docRect(doc []protocol.Pixel, docW, x0, y0, w, h int) []protocol.Pixel {
	out := make([]protocol.Pixel, w*h)
	for y := 0; y < h; y++ {
		copy(out[y*w:(y+1)*w], doc[(y0+y)*docW+x0:(y0+y)*docW+x0+w])
	}
	return out
}

// scrollStepper drives a viewport bouncing over a document: each step is
// one COPY plus a repaint of the exposed strip, exactly how a toolkit
// scrolls a window. The document spans view.H+scrollSpan rows, so a full
// pass is scrollSpan/scrollStrip steps; after the first pass every exposed
// strip is content the cache has already seen.
type scrollStepper struct {
	doc      []protocol.Pixel
	view     protocol.Rect
	pos, dir int
}

func newScrollStepper(seed uint64, view protocol.Rect) *scrollStepper {
	return &scrollStepper{
		doc:  document(seed, view.W, view.H+scrollSpan),
		view: view,
		dir:  1,
	}
}

func (s *scrollStepper) ops(i int) []core.Op {
	if i == 0 {
		return []core.Op{core.ImageOp{Rect: s.view, Pixels: docRows(s.doc, s.view.W, 0, s.view.H)}}
	}
	if next := s.pos + s.dir*scrollStrip; next < 0 || next > scrollSpan {
		s.dir = -s.dir
	}
	s.pos += s.dir * scrollStrip
	v := s.view
	if s.dir > 0 {
		// Content moves up; the strip at the bottom is exposed.
		moved := protocol.Rect{X: v.X, Y: v.Y + scrollStrip, W: v.W, H: v.H - scrollStrip}
		strip := protocol.Rect{X: v.X, Y: v.Y + v.H - scrollStrip, W: v.W, H: scrollStrip}
		return []core.Op{
			core.ScrollOp{Rect: moved, DY: -scrollStrip},
			core.ImageOp{Rect: strip, Pixels: docRows(s.doc, v.W, s.pos+v.H-scrollStrip, scrollStrip)},
		}
	}
	// Content moves down; the strip at the top is exposed.
	moved := protocol.Rect{X: v.X, Y: v.Y, W: v.W, H: v.H - scrollStrip}
	strip := protocol.Rect{X: v.X, Y: v.Y, W: v.W, H: scrollStrip}
	return []core.Op{
		core.ScrollOp{Rect: moved, DY: scrollStrip},
		core.ImageOp{Rect: strip, Pixels: docRows(s.doc, v.W, s.pos, scrollStrip)},
	}
}

func newScrollDrive(seed uint64) *Drive {
	st := newScrollStepper(seed, protocol.Rect{X: 64, Y: 64, W: scrollViewW, H: scrollViewH})
	pass := scrollSpan / scrollStrip
	return &Drive{
		Name: "scroll",
		// Four measured passes after the priming paint plus first pass.
		Steps:  1 + 5*pass,
		Warmup: 1 + pass,
		step:   st.ops,
	}
}

// reexposeStepper alternates popping an overlay (menu/dialog: panel fill
// plus text) over a background window and dismissing it, cycling through a
// few positions — §2.2's re-expose case, where a stateful protocol would
// have the client remember the obscured pixels and SLIM's gen-1 server
// must re-send them. Overlay positions are tile-aligned with the
// background paint so the restore tiles are the very chunks the background
// paint cached.
type reexposeStepper struct {
	bg      []protocol.Pixel
	bgRect  protocol.Rect
	overlay []protocol.Rect
	bits    [][]byte // per-position overlay text bitmap
	fills   []protocol.Pixel
}

func newReexposeStepper(seed uint64, bgRect protocol.Rect, ovW, ovH int) *reexposeStepper {
	rng := stats.NewRNG(seed ^ 0xA5A5)
	st := &reexposeStepper{
		bg:     document(seed, bgRect.W, bgRect.H),
		bgRect: bgRect,
	}
	// Four overlay positions in a loose 2×2 arrangement, offsets snapped to
	// the tile grid of the background paint.
	for _, off := range [][2]int{{32, 32}, {bgRect.W - ovW - 48, 64}, {64, bgRect.H - ovH - 32}, {bgRect.W - ovW - 32, bgRect.H - ovH - 64}} {
		x := bgRect.X + off[0]/core.TileSize*core.TileSize
		y := bgRect.Y + off[1]/core.TileSize*core.TileSize
		st.overlay = append(st.overlay, protocol.Rect{X: x, Y: y, W: ovW, H: ovH})
		_, _, bits := glyphBitmap(rng, ovW/GlyphW, ovH/GlyphH)
		st.bits = append(st.bits, bits)
		st.fills = append(st.fills, uiPalette[len(st.fills)%len(uiPalette)])
	}
	return st
}

func (s *reexposeStepper) ops(i int) []core.Op {
	if i == 0 {
		return []core.Op{core.ImageOp{Rect: s.bgRect, Pixels: s.bg}}
	}
	p := ((i - 1) / 2) % len(s.overlay)
	r := s.overlay[p]
	if (i-1)%2 == 0 {
		// Pop the overlay: panel background, then its text.
		return []core.Op{
			core.FillOp{Rect: r, Color: s.fills[p]},
			core.TextOp{
				Rect: protocol.Rect{X: r.X, Y: r.Y, W: r.W / GlyphW * GlyphW, H: r.H / GlyphH * GlyphH},
				Fg:   textColors[p%len(textColors)][0], Bg: s.fills[p], Bits: s.bits[p],
			},
		}
	}
	// Dismiss it: restore the obscured background rectangle.
	return []core.Op{core.ImageOp{
		Rect:   r,
		Pixels: docRect(s.bg, s.bgRect.W, r.X-s.bgRect.X, r.Y-s.bgRect.Y, r.W, r.H),
	}}
}

// newReexposeDrive pops and dismisses an ovW×ovH overlay over a 1024×768
// background window.
func newReexposeDrive(name string, seed uint64, ovW, ovH int) *Drive {
	st := newReexposeStepper(seed, protocol.Rect{X: 128, Y: 128, W: 1024, H: 768}, ovW, ovH)
	cycle := 2 * len(st.overlay)
	return &Drive{
		Name: name,
		// Five measured pop/dismiss rounds over every position after the
		// background paint and one priming round.
		Steps:  1 + 6*cycle,
		Warmup: 1 + cycle,
		step:   st.ops,
	}
}

// newMixedDrive interleaves a scrolling document, overlay pop/dismiss
// cycles, and a small video region repainted with fresh frames every step
// — the churn content that must NOT pollute the cache. The three regions
// are disjoint on the 1280×1024 screen.
func newMixedDrive(seed uint64) *Drive {
	sc := newScrollStepper(seed, protocol.Rect{X: 32, Y: 32, W: scrollViewW, H: scrollViewH})
	re := newReexposeStepper(seed+1, protocol.Rect{X: 608, Y: 512, W: 512, H: 384}, 192, 144)
	vid := protocol.Rect{X: 704, Y: 64, W: 128, H: 96}
	vrng := stats.NewRNG(seed ^ 0xC0DEC2)
	reCycle := 2 * len(re.overlay)
	pass := scrollSpan / scrollStrip
	step := func(i int) []core.Op {
		ops := sc.ops(i)
		ops = append(ops, re.ops(i)...)
		// A fresh frame every step: pure churn, never a cache hit.
		ops = append(ops, core.ImageOp{Rect: vid, Pixels: photoPixels(vrng, vid.W, vid.H)})
		return ops
	}
	steps := 1 + 5*pass
	if alt := 1 + 6*reCycle; alt > steps {
		steps = alt
	}
	warm := 1 + pass
	if alt := 1 + reCycle; alt > warm {
		warm = alt
	}
	return &Drive{Name: "mixed", Steps: steps, Warmup: warm, step: step}
}

// --- the raw vs gen-1 vs gen-2 comparison table ---

// CodecBenchSchema versions the committed BENCH_codec2.json artifact.
const CodecBenchSchema = "slim-codec2-bench/v1"

// DefaultCodecSeed seeds the committed artifact and the validating test.
const DefaultCodecSeed = 20260808

// CodecRow is one workload's bytes-on-wire comparison: the uncompressed
// 3 B/px baseline, the gen-1 encoder, and the gen-2 tile-cache encoder,
// all fed the identical op stream and accounted from Warmup on.
type CodecRow struct {
	Workload    string            `json:"workload"`
	Steps       int               `json:"steps"`
	WarmupSteps int               `json:"warmup_steps"`
	RawBytes    int64             `json:"raw_bytes"`
	Gen1Bytes   int64             `json:"gen1_bytes"`
	Gen2Bytes   int64             `json:"gen2_bytes"`
	Gen1Factor  float64           `json:"gen1_factor"`    // raw / gen-1
	Gen2Factor  float64           `json:"gen2_factor"`    // raw / gen-2
	Gen2VsGen1  float64           `json:"gen2_vs_gen1"`   // gen-1 / gen-2
	CacheHits   uint64            `json:"cache_hits"`     // measured window
	CacheMisses uint64            `json:"cache_misses"`   // measured window
	HitRatio    float64           `json:"hit_ratio"`      // measured window
	SavedBytes  int64             `json:"saved_bytes"`    // vs literal re-send of hit tiles
	Tiles       map[string]uint64 `json:"tiles_by_class"` // whole run
}

// CodecBench is the committed artifact: one row per drive.
type CodecBench struct {
	Schema string     `json:"schema"`
	Seed   uint64     `json:"seed"`
	Rows   []CodecRow `json:"rows"`
}

// RunCodecRow replays the named drive through a gen-1 and a gen-2 encoder
// and reports the comparison row. Deterministic: same name+seed, same row.
func RunCodecRow(name string, seed uint64) (CodecRow, error) {
	d1, err := NewDrive(name, seed)
	if err != nil {
		return CodecRow{}, err
	}
	d2, _ := NewDrive(name, seed)

	gen1 := core.NewEncoder(ScreenW, ScreenH)
	raw, g1 := runDrive(d1, gen1)

	gen2 := core.NewEncoder(ScreenW, ScreenH)
	gen2.EnableCodec2(0)
	warmStats := core.Codec2Stats{}
	_, g2 := runDriveWith(d2, gen2, func() { warmStats = gen2.Codec2Stats() })
	cs := gen2.Codec2Stats()

	hits := cs.Hits - warmStats.Hits
	misses := cs.Misses - warmStats.Misses
	row := CodecRow{
		Workload:    name,
		Steps:       d1.Steps,
		WarmupSteps: d1.Warmup,
		RawBytes:    raw,
		Gen1Bytes:   g1,
		Gen2Bytes:   g2,
		Gen1Factor:  round3(ratio(raw, g1)),
		Gen2Factor:  round3(ratio(raw, g2)),
		Gen2VsGen1:  round3(ratio(g1, g2)),
		CacheHits:   hits,
		CacheMisses: misses,
		SavedBytes:  cs.SavedBytes - warmStats.SavedBytes,
		Tiles:       make(map[string]uint64, len(cs.Tiles)),
	}
	if hits+misses > 0 {
		row.HitRatio = round3(float64(hits) / float64(hits+misses))
	}
	for c, n := range cs.Tiles {
		if n > 0 {
			row.Tiles[core.TileClass(c).String()] = n
		}
	}
	return row, nil
}

// runDrive replays a drive, returning raw and wire bytes accumulated from
// the drive's Warmup step on.
func runDrive(d *Drive, enc *core.Encoder) (raw, wire int64) {
	return runDriveWith(d, enc, nil)
}

// runDriveWith additionally invokes atWarmup at the warmup boundary so
// callers can snapshot encoder-side state.
func runDriveWith(d *Drive, enc *core.Encoder, atWarmup func()) (raw, wire int64) {
	var raw0, wire0 int64
	for i := 0; i < d.Steps; i++ {
		if i == d.Warmup {
			raw0, wire0 = enc.Stats.TotalRawBytes(), enc.Stats.TotalWireBytes()
			if atWarmup != nil {
				atWarmup()
			}
		}
		for _, op := range d.Step(i) {
			dgs, err := enc.Encode(op)
			if err != nil {
				panic("workload: " + err.Error()) // drive geometry is static
			}
			for _, dg := range dgs {
				dg.ReleaseWire()
			}
		}
	}
	return enc.Stats.TotalRawBytes() - raw0, enc.Stats.TotalWireBytes() - wire0
}

// RenderCodecBench renders the comparison in Figure 8's shape: bytes on
// the wire per workload, raw vs gen-1 vs gen-2, plus the cache economics.
func RenderCodecBench(b *CodecBench) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Codec gen-2 bytes on wire (steady state; per-workload warmup excluded; seed %d)\n", b.Seed)
	fmt.Fprintf(&sb, "%-10s %8s %10s %10s %10s %7s %8s %9s %6s %10s\n",
		"workload", "steps", "raw KB", "gen1 KB", "gen2 KB", "gen1 x", "gen2 x", "gen2/gen1", "hit%", "saved KB")
	for _, r := range b.Rows {
		fmt.Fprintf(&sb, "%-10s %8d %10.0f %10.0f %10.0f %7.1f %8.1f %9.1f %6.1f %10.0f\n",
			r.Workload, r.Steps-r.WarmupSteps,
			float64(r.RawBytes)/1e3, float64(r.Gen1Bytes)/1e3, float64(r.Gen2Bytes)/1e3,
			r.Gen1Factor, r.Gen2Factor, r.Gen2VsGen1,
			100*r.HitRatio, float64(r.SavedBytes)/1e3)
	}
	return sb.String()
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func round3(f float64) float64 { return math.Round(f*1000) / 1000 }
