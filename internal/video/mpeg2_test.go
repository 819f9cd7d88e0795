package video

import (
	"testing"
	"time"

	"slim/internal/protocol"
)

// referenceMPEG2Next is the per-pixel formula mpeg2Source.Next draws a
// frame by: two divides and a blob test for every pixel. Next must match
// it frame for frame, cost for cost.
func referenceMPEG2Next(s *mpeg2Source) Frame {
	f := Frame{W: s.w, H: s.h, Pixels: make([]protocol.Pixel, s.w*s.h)}
	t := s.frame
	bx := (t * 7) % s.w
	by := (t * 3) % s.h
	for y := 0; y < s.h; y++ {
		for x := 0; x < s.w; x++ {
			r := uint8((x + t*2) * 255 / (s.w + 120))
			g := uint8((y + t) * 255 / (s.h + 60))
			b := uint8(128 + 64*((x>>5+y>>5+t>>3)&1))
			dx, dy := x-bx, y-by
			if dx*dx+dy*dy < 40*40 {
				r, g, b = 250, 240, 200
			}
			f.Pixels[y*s.w+x] = protocol.RGB(r, g, b)
		}
	}
	s.frame++
	s.cost = MPEG2DecodeCost + time.Duration(s.rng.Range(-2e6, 2e6))
	return f
}

func TestMPEG2NextMatchesPerPixelFormula(t *testing.T) {
	got := NewMPEG2(7).(*mpeg2Source)
	want := NewMPEG2(7).(*mpeg2Source)
	// Frame counters whose blob (center (7t mod 720, 3t mod 480), radius
	// 40) is clipped at the left and top edges (0), the right (100:
	// x 700), the left alone (103: x 1), the bottom (150: y 450) and the
	// top alone (165: y 15); whose checker parity t>>3 is odd (8, 15,
	// 1000); and where red and green wrap past a byte (1000, 4321). Each
	// is drawn with its successor.
	for _, t0 := range []int{0, 1, 7, 8, 15, 100, 103, 150, 165, 1000, 4321} {
		got.frame, want.frame = t0, t0
		for range 2 {
			g, w := got.Next(), referenceMPEG2Next(want)
			if g.W != w.W || g.H != w.H || len(g.Pixels) != len(w.Pixels) {
				t.Fatalf("frame %d: %dx%d (%d pixels), want %dx%d (%d)",
					t0, g.W, g.H, len(g.Pixels), w.W, w.H, len(w.Pixels))
			}
			for i := range w.Pixels {
				if g.Pixels[i] != w.Pixels[i] {
					t.Fatalf("frame %d: pixel (%d,%d) = %06x, want %06x",
						t0, i%w.W, i/w.W, g.Pixels[i], w.Pixels[i])
				}
			}
			if got.FrameCost() != want.FrameCost() {
				t.Fatalf("frame %d: cost %v, want %v", t0, got.FrameCost(), want.FrameCost())
			}
		}
	}
}

func BenchmarkHotpath_MPEG2Next(b *testing.B) {
	src := NewMPEG2(1)
	b.SetBytes(720 * 480 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Next()
	}
}

func BenchmarkHotpath_SlowMPEG2Next(b *testing.B) {
	src := NewMPEG2(1).(*mpeg2Source)
	b.SetBytes(720 * 480 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceMPEG2Next(src)
	}
}
