package fb

import (
	"bytes"
	"math/rand"
	"testing"

	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// The tests in this file pin every optimized kernel to the retained
// slowXxx reference implementation in slow.go. Except for ScaleBilinear
// (fixed-point vs float64: ±1 per channel), optimized and reference
// results must be bit-identical.

func randomFB(rng *rand.Rand, w, h int) *Framebuffer {
	f := New(w, h)
	for i := range f.Pix {
		f.Pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	return f
}

func cloneFB(f *Framebuffer) *Framebuffer {
	c := New(f.W, f.H)
	copy(c.Pix, f.Pix)
	return c
}

// randRect generates rectangles that exercise clipping: origins may be
// negative, extents may hang off any edge or miss the buffer entirely.
func randRect(rng *rand.Rand, w, h int) protocol.Rect {
	return protocol.Rect{
		X: rng.Intn(w+16) - 8,
		Y: rng.Intn(h+16) - 8,
		W: rng.Intn(w/2) + 1,
		H: rng.Intn(h/2) + 1,
	}
}

func requireSame(t *testing.T, fast, slow *Framebuffer, op string, args ...interface{}) {
	t.Helper()
	if !fast.slowEqual(slow) {
		t.Fatalf("optimized and reference framebuffers differ after "+op, args...)
	}
}

func TestKernelsMatchReference(t *testing.T) {
	const w, h = 61, 47 // odd sizes catch stride and tail bugs
	rng := rand.New(rand.NewSource(42))

	t.Run("Fill", func(t *testing.T) {
		fast := randomFB(rng, w, h)
		slow := cloneFB(fast)
		for i := 0; i < 200; i++ {
			r := randRect(rng, w, h)
			c := protocol.Pixel(rng.Uint32() & 0xffffff)
			fast.Fill(r, c)
			slow.slowFill(r, c)
			requireSame(t, fast, slow, "Fill %v", r)
		}
	})

	t.Run("Set", func(t *testing.T) {
		fast := randomFB(rng, w, h)
		slow := cloneFB(fast)
		for i := 0; i < 200; i++ {
			r := randRect(rng, w, h)
			pixels := make([]protocol.Pixel, r.Pixels())
			for j := range pixels {
				pixels[j] = protocol.Pixel(rng.Uint32() & 0xffffff)
			}
			errF := fast.Set(r, pixels)
			errS := slow.slowSet(r, pixels)
			if (errF == nil) != (errS == nil) {
				t.Fatalf("Set %v: error mismatch %v vs %v", r, errF, errS)
			}
			requireSame(t, fast, slow, "Set %v", r)
		}
		// Length-mismatch errors agree too.
		r := protocol.Rect{X: 0, Y: 0, W: 4, H: 4}
		if fast.Set(r, make([]protocol.Pixel, 3)) == nil || slow.slowSet(r, make([]protocol.Pixel, 3)) == nil {
			t.Fatal("short SET accepted")
		}
	})

	t.Run("Bitmap", func(t *testing.T) {
		fast := randomFB(rng, w, h)
		slow := cloneFB(fast)
		for i := 0; i < 200; i++ {
			r := randRect(rng, w, h)
			bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
			rng.Read(bits)
			// Mix in all-zero and all-one rows to hit the fast byte cases.
			if len(bits) > 0 && i%3 == 0 {
				for j := range bits[:len(bits)/2] {
					bits[j] = 0xff
				}
			}
			fg := protocol.Pixel(rng.Uint32() & 0xffffff)
			bg := protocol.Pixel(rng.Uint32() & 0xffffff)
			errF := fast.Bitmap(r, fg, bg, bits)
			errS := slow.slowBitmap(r, fg, bg, bits)
			if (errF == nil) != (errS == nil) {
				t.Fatalf("Bitmap %v: error mismatch %v vs %v", r, errF, errS)
			}
			requireSame(t, fast, slow, "Bitmap %v", r)
		}
	})

	t.Run("Copy", func(t *testing.T) {
		fast := randomFB(rng, w, h)
		slow := cloneFB(fast)
		// Non-overlapping, clipped, and overlapping in all four shift
		// directions.
		for i := 0; i < 300; i++ {
			src := randRect(rng, w, h)
			var dx, dy int
			switch i % 5 {
			case 0: // arbitrary destination, may clip or miss
				dx, dy = rng.Intn(w+16)-8, rng.Intn(h+16)-8
			case 1: // shift right-down (reverse iteration path)
				dx, dy = src.X+rng.Intn(3)+1, src.Y+rng.Intn(3)+1
			case 2: // shift left-up (forward iteration path)
				dx, dy = src.X-rng.Intn(3)-1, src.Y-rng.Intn(3)-1
			case 3: // shift right only, same row band
				dx, dy = src.X+rng.Intn(3)+1, src.Y
			case 4: // shift left only, same row band
				dx, dy = src.X-rng.Intn(3)-1, src.Y
			}
			fast.Copy(src, dx, dy)
			slow.slowCopy(src, dx, dy)
			requireSame(t, fast, slow, "Copy %v -> (%d,%d)", src, dx, dy)
		}
	})

	t.Run("ReadRect", func(t *testing.T) {
		f := randomFB(rng, w, h)
		for i := 0; i < 100; i++ {
			r := randRect(rng, w, h)
			got := f.ReadRect(r)
			want := f.slowReadRect(r)
			if len(got) != len(want) {
				t.Fatalf("ReadRect %v: %d pixels, want %d", r, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("ReadRect %v: pixel %d = %06x, want %06x", r, j, got[j], want[j])
				}
			}
		}
	})

	t.Run("EqualDiff", func(t *testing.T) {
		a := randomFB(rng, w, h)
		for i := 0; i < 100; i++ {
			b := cloneFB(a)
			// Perturb a random handful of pixels (sometimes none).
			for j := rng.Intn(4); j > 0; j-- {
				b.Pix[rng.Intn(len(b.Pix))] ^= protocol.Pixel(rng.Uint32()&0xffffff | 1)
			}
			if a.Equal(b) != a.slowEqual(b) {
				t.Fatal("Equal disagrees with reference")
			}
			nF, errF := a.DiffPixels(b)
			nS, errS := a.slowDiffPixels(b)
			if nF != nS || (errF == nil) != (errS == nil) {
				t.Fatalf("DiffPixels = %d,%v want %d,%v", nF, errF, nS, errS)
			}
			rF, okF := a.DiffRect(b)
			rS, okS := a.slowDiffRect(b)
			if rF != rS || okF != okS {
				t.Fatalf("DiffRect = %v,%v want %v,%v", rF, okF, rS, okS)
			}
		}
		// Mismatched sizes take the early path.
		c := New(w+1, h)
		if a.Equal(c) || a.slowEqual(c) {
			t.Fatal("mismatched sizes compare equal")
		}
		if _, err := a.DiffPixels(c); err == nil {
			t.Fatal("mismatched-size diff accepted")
		}
	})

	t.Run("Image", func(t *testing.T) {
		f := randomFB(rng, w, h)
		got, want := f.Image(), f.slowImage()
		if got.Rect != want.Rect || got.Stride != want.Stride {
			t.Fatalf("image geometry %v/%d vs %v/%d", got.Rect, got.Stride, want.Rect, want.Stride)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatal("Image RGBA bytes differ from reference")
		}
	})

	t.Run("CSCSCodec", func(t *testing.T) {
		formats := []protocol.CSCSFormat{protocol.CSCS16, protocol.CSCS12, protocol.CSCS8, protocol.CSCS6, protocol.CSCS5}
		sizes := [][2]int{{1, 1}, {2, 2}, {3, 3}, {8, 6}, {17, 5}, {31, 23}, {64, 48}}
		for _, format := range formats {
			for _, sz := range sizes {
				cw, ch := sz[0], sz[1]
				pix := make([]protocol.Pixel, cw*ch)
				for i := range pix {
					pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
				}
				fastData, err := EncodeCSCS(pix, cw, ch, format)
				if err != nil {
					t.Fatalf("%v %dx%d encode: %v", format, cw, ch, err)
				}
				slowData, err := slowEncodeCSCS(pix, cw, ch, format)
				if err != nil {
					t.Fatalf("%v %dx%d slow encode: %v", format, cw, ch, err)
				}
				if !bytes.Equal(fastData, slowData) {
					t.Fatalf("%v %dx%d: fused encoder wire bytes differ from reference", format, cw, ch)
				}
				fastPix, err := DecodeCSCS(fastData, cw, ch, format)
				if err != nil {
					t.Fatalf("%v %dx%d decode: %v", format, cw, ch, err)
				}
				slowPix, err := slowDecodeCSCS(slowData, cw, ch, format)
				if err != nil {
					t.Fatalf("%v %dx%d slow decode: %v", format, cw, ch, err)
				}
				for i := range fastPix {
					if fastPix[i] != slowPix[i] {
						t.Fatalf("%v %dx%d: decoded pixel %d = %06x, want %06x",
							format, cw, ch, i, fastPix[i], slowPix[i])
					}
				}
			}
		}
	})

	t.Run("ScaleBilinear", func(t *testing.T) {
		cases := [][4]int{
			{8, 8, 16, 16}, {16, 16, 8, 8}, {17, 5, 31, 23},
			{3, 3, 64, 64}, {64, 48, 17, 13}, {2, 1, 4, 1}, {5, 7, 5, 7},
		}
		for _, c := range cases {
			sw, sh, dw, dh := c[0], c[1], c[2], c[3]
			src := make([]protocol.Pixel, sw*sh)
			for i := range src {
				src[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
			}
			got, err := ScaleBilinear(src, sw, sh, dw, dh)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			want, err := slowScaleBilinear(src, sw, sh, dw, dh)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			for i := range got {
				// Fixed-point 16.16 vs float64: at most 1 level per channel.
				if e := pixelError(got[i], want[i]); e > 1 {
					t.Fatalf("%v: pixel %d error %d (%06x vs %06x)", c, i, e, got[i], want[i])
				}
			}
		}
	})
}

// TestDecodeCSCSTruncatedChroma is the regression test for the bitReader
// overrun path: a payload whose chroma planes are truncated must be
// rejected up front by the length check, and even a reader driven past
// the end must report the overrun instead of fabricating color from
// zero-padding.
func TestDecodeCSCSTruncatedChroma(t *testing.T) {
	const w, h = 8, 6
	pix := make([]protocol.Pixel, w*h)
	for i := range pix {
		pix[i] = protocol.RGB(byte(i*37), byte(i*11), byte(i*5))
	}
	for _, format := range []protocol.CSCSFormat{protocol.CSCS16, protocol.CSCS12, protocol.CSCS8, protocol.CSCS6, protocol.CSCS5} {
		data, err := EncodeCSCS(pix, w, h, format)
		if err != nil {
			t.Fatal(err)
		}
		yBits, _ := format.Params()
		lumaEnd := (w*h*yBits + 7) / 8
		// Truncate inside the chroma planes: keep the full luma plane but
		// drop the tail.
		for _, cut := range []int{len(data) - 1, lumaEnd + 1, lumaEnd} {
			if cut >= len(data) || cut < 0 {
				continue
			}
			if _, err := DecodeCSCS(data[:cut], w, h, format); err == nil {
				t.Errorf("%v: truncated payload (%d of %d bytes) accepted", format, cut, len(data))
			}
		}
	}
}

// TestBitReaderOverrun checks the reader-level guard directly: reads past
// the end of the buffer return zero bits and latch the overrun flag.
func TestBitReaderOverrun(t *testing.T) {
	r := &bitReader{buf: []byte{0xff}}
	if got := r.read(8); got != 0xff {
		t.Fatalf("in-bounds read = %#x", got)
	}
	if r.overrun {
		t.Fatal("overrun latched before end of buffer")
	}
	if got := r.read(4); got != 0 {
		t.Fatalf("past-end read = %#x, want 0", got)
	}
	if !r.overrun {
		t.Fatal("overrun not latched by past-end read")
	}
	// The flag is sticky.
	r.read(8)
	if !r.overrun {
		t.Fatal("overrun flag cleared")
	}
}

// TestConsoleApplyZeroAlloc asserts the ISSUE's steady-state budget: once
// the frame buffer's CSCS scratch is warm, applying SET, FILL, COPY,
// BITMAP, and scaled CSCS commands allocates nothing.
func TestConsoleApplyZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	f := New(128, 128)
	setMsg := &protocol.Set{
		Rect:   protocol.Rect{X: 3, Y: 5, W: 40, H: 30},
		Pixels: make([]protocol.Pixel, 40*30),
	}
	bits := make([]byte, protocol.BitmapRowBytes(33)*21)
	for i := range bits {
		bits[i] = byte(i * 73)
	}
	bitmapMsg := &protocol.Bitmap{
		Rect: protocol.Rect{X: 10, Y: 10, W: 33, H: 21},
		Fg:   protocol.RGB(255, 255, 255),
		Bits: bits,
	}
	fillMsg := &protocol.Fill{Rect: protocol.Rect{X: 0, Y: 0, W: 100, H: 80}, Color: protocol.RGB(1, 2, 3)}
	copyMsg := &protocol.Copy{Rect: protocol.Rect{X: 2, Y: 2, W: 50, H: 50}, DstX: 20, DstY: 13}
	srcPix := make([]protocol.Pixel, 32*24)
	for i := range srcPix {
		srcPix[i] = protocol.Pixel(i * 2654435761)
	}
	data, err := EncodeCSCS(srcPix, 32, 24, protocol.CSCS12)
	if err != nil {
		t.Fatal(err)
	}
	cscsMsg := &protocol.CSCS{
		Src:    protocol.Rect{W: 32, H: 24},
		Dst:    protocol.Rect{X: 8, Y: 8, W: 64, H: 48}, // forces decode + scale
		Format: protocol.CSCS12,
		Data:   data,
	}
	msgs := []protocol.Message{setMsg, bitmapMsg, fillMsg, copyMsg, cscsMsg}
	apply := func() {
		for _, m := range msgs {
			if err := f.Apply(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply() // warm the decode/scale scratch
	if allocs := testing.AllocsPerRun(50, apply); allocs > 0 {
		t.Errorf("console apply path allocates %.1f objects/op, want 0", allocs)
	}
}

// FuzzFBKernels drives a randomized op sequence through the optimized and
// reference kernels in lockstep and requires bit-identical frame buffers
// after every op — negative-origin rects, fully and partially clipped
// rects, and overlapping copies in all four shift directions included.
func FuzzFBKernels(f *testing.F) {
	f.Add(int64(1), uint8(16))
	f.Add(int64(42), uint8(200))
	f.Add(int64(-977), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nOps uint8) {
		rng := rand.New(rand.NewSource(seed))
		const w, h = 48, 32
		fast := randomFB(rng, w, h)
		slow := cloneFB(fast)
		bitmap := func(r protocol.Rect) {
			bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
			rng.Read(bits)
			fg := protocol.Pixel(rng.Uint32() & 0xffffff)
			bg := protocol.Pixel(rng.Uint32() & 0xffffff)
			fast.Bitmap(r, fg, bg, bits)
			slow.slowBitmap(r, fg, bg, bits)
		}
		// Glyph cells first: 8-wide, byte-aligned BITMAPs take the in-place
		// expansion whole, clipped at the bottom or top edge, or after a
		// whole-byte left or right clip; clipped mid-byte at the right edge
		// they do not.
		for _, r := range []protocol.Rect{
			{X: 0, Y: 0, W: 8, H: 16},
			{X: w - 8, Y: h - 16, W: 8, H: 16},
			{X: 8, Y: h - 9, W: 8, H: 16},     // bottom edge
			{X: 16, Y: -7, W: 8, H: 16},       // top edge
			{X: -8, Y: 5, W: 16, H: 16},       // left edge, one whole byte
			{X: w - 8, Y: 9, W: 16, H: 16},    // right edge, one whole byte
			{X: w - 5, Y: 3, W: 8, H: 16},     // right edge
			{X: w - 3, Y: h - 4, W: 8, H: 16}, // right and bottom
			{X: 24, Y: 4, W: 8, H: 1},
		} {
			bitmap(r)
			if !fast.slowEqual(slow) {
				t.Fatalf("glyph %v: frame buffers diverged", r)
			}
		}
		ops := int(nOps)%24 + 1
		for i := 0; i < ops; i++ {
			r := randRect(rng, w, h)
			switch rng.Intn(7) {
			case 0:
				c := protocol.Pixel(rng.Uint32() & 0xffffff)
				fast.Fill(r, c)
				slow.slowFill(r, c)
			case 1:
				pixels := make([]protocol.Pixel, r.Pixels())
				for j := range pixels {
					pixels[j] = protocol.Pixel(rng.Uint32() & 0xffffff)
				}
				fast.Set(r, pixels)
				slow.slowSet(r, pixels)
			case 2:
				bitmap(r)
			case 3:
				// Overlapping copy, direction chosen by the rng: the four
				// combinations of left/right and up/down shifts.
				dx := r.X + rng.Intn(7) - 3
				dy := r.Y + rng.Intn(7) - 3
				fast.Copy(r, dx, dy)
				slow.slowCopy(r, dx, dy)
			case 4:
				// Arbitrary (possibly clipped-away) copy.
				dx := rng.Intn(w+16) - 8
				dy := rng.Intn(h+16) - 8
				fast.Copy(r, dx, dy)
				slow.slowCopy(r, dx, dy)
			case 5:
				// ReadRect comparison (no mutation).
				got := fast.ReadRect(r)
				want := slow.slowReadRect(r)
				if len(got) != len(want) {
					t.Fatalf("op %d: ReadRect %v lengths %d vs %d", i, r, len(got), len(want))
				}
			case 6:
				// A glyph cell, byte-aligned since it starts on screen:
				// whole, or clipped at the right, top or bottom edge.
				bitmap(protocol.Rect{X: rng.Intn(w), Y: rng.Intn(h+16) - 8, W: 8, H: 16})
			}
			if !fast.slowEqual(slow) {
				t.Fatalf("op %d: frame buffers diverged", i)
			}
		}
		// Final full-surface checks.
		if n, _ := fast.DiffPixels(slow); n != 0 {
			t.Fatalf("DiffPixels = %d at end", n)
		}
		if _, changed := fast.DiffRect(slow); changed {
			t.Fatal("DiffRect reports change at end")
		}
	})
}

// --- BenchmarkHotpath_*: optimized kernels vs their slowXxx references ---

func benchFB(b *testing.B) (*Framebuffer, *rand.Rand) {
	rng := rand.New(rand.NewSource(7))
	return randomFB(rng, 1280, 1024), rng
}

func BenchmarkHotpath_SetApply(b *testing.B) {
	f, rng := benchFB(b)
	r := protocol.Rect{X: 17, Y: 23, W: 256, H: 256}
	pixels := make([]protocol.Pixel, r.Pixels())
	for i := range pixels {
		pixels[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	b.SetBytes(int64(r.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Set(r, pixels)
	}
}

func BenchmarkHotpath_SlowSetApply(b *testing.B) {
	f, rng := benchFB(b)
	r := protocol.Rect{X: 17, Y: 23, W: 256, H: 256}
	pixels := make([]protocol.Pixel, r.Pixels())
	for i := range pixels {
		pixels[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	b.SetBytes(int64(r.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.slowSet(r, pixels)
	}
}

func BenchmarkHotpath_BitmapApply(b *testing.B) {
	f, rng := benchFB(b)
	r := protocol.Rect{X: 9, Y: 11, W: 509, H: 128}
	bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
	rng.Read(bits)
	b.SetBytes(int64(r.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Bitmap(r, 0xffffff, 0, bits)
	}
}

func BenchmarkHotpath_SlowBitmapApply(b *testing.B) {
	f, rng := benchFB(b)
	r := protocol.Rect{X: 9, Y: 11, W: 509, H: 128}
	bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
	rng.Read(bits)
	b.SetBytes(int64(r.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.slowBitmap(r, 0xffffff, 0, bits)
	}
}

// BenchmarkHotpath_GlyphApply measures a keystroke echo's paint: one 8×16
// glyph BITMAP, advancing a cell at a time across 64 frame buffers of
// 640×480, so each apply lands on rows that are not in cache — as on a
// server whose sessions take turns.
func BenchmarkHotpath_GlyphApply(b *testing.B) {
	const screens, w, h = 64, 640, 480
	fbs := make([]*Framebuffer, screens)
	for i := range fbs {
		fbs[i] = New(w, h)
	}
	bits := make([]byte, 16)
	rand.New(rand.NewSource(7)).Read(bits)
	const cols, rows = w / 8, h / 16
	b.SetBytes(8 * 16 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell := i / screens
		r := protocol.Rect{X: cell % cols * 8, Y: cell / cols % rows * 16, W: 8, H: 16}
		fbs[i%screens].Bitmap(r, 0xffffff, 0, bits)
	}
}

func BenchmarkHotpath_FillApply(b *testing.B) {
	f, _ := benchFB(b)
	r := protocol.Rect{X: 100, Y: 100, W: 512, H: 512}
	b.SetBytes(int64(r.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Fill(r, protocol.Pixel(i))
	}
}

func BenchmarkHotpath_CopyApply(b *testing.B) {
	f, _ := benchFB(b)
	r := protocol.Rect{X: 10, Y: 10, W: 512, H: 512}
	b.SetBytes(int64(r.Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Copy(r, 12, 13) // overlapping: the hard direction
	}
}

func benchCSCSPayload(b *testing.B, w, h int, format protocol.CSCSFormat) []byte {
	rng := rand.New(rand.NewSource(9))
	pix := make([]protocol.Pixel, w*h)
	for i := range pix {
		// Smooth-ish content like real video frames.
		pix[i] = protocol.RGB(uint8(i), uint8(i/w*4), uint8(rng.Intn(256)))
	}
	data, err := EncodeCSCS(pix, w, h, format)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkHotpath_CSCSDecodeScale(b *testing.B) {
	// The §5 video path: decode a quarter-size frame, scale to full.
	const sw, sh, dw, dh = 176, 144, 352, 288
	data := benchCSCSPayload(b, sw, sh, protocol.CSCS12)
	var pix, scaled []protocol.Pixel
	b.SetBytes(int64(dw * dh * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		pix, err = DecodeCSCSInto(pix, data, sw, sh, protocol.CSCS12)
		if err != nil {
			b.Fatal(err)
		}
		scaled, err = ScaleBilinearInto(scaled, pix, sw, sh, dw, dh)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotpath_SlowCSCSDecodeScale(b *testing.B) {
	const sw, sh, dw, dh = 176, 144, 352, 288
	data := benchCSCSPayload(b, sw, sh, protocol.CSCS12)
	b.SetBytes(int64(dw * dh * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pix, err := slowDecodeCSCS(data, sw, sh, protocol.CSCS12)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := slowScaleBilinear(pix, sw, sh, dw, dh); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotpath_CSCSEncode(b *testing.B) {
	const w, h = 352, 288
	rng := rand.New(rand.NewSource(11))
	pix := make([]protocol.Pixel, w*h)
	for i := range pix {
		pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	var buf []byte
	b.SetBytes(int64(w * h * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendCSCS(buf[:0], pix, w, h, protocol.CSCS12)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotpath_SlowCSCSEncode(b *testing.B) {
	const w, h = 352, 288
	rng := rand.New(rand.NewSource(11))
	pix := make([]protocol.Pixel, w*h)
	for i := range pix {
		pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	b.SetBytes(int64(w * h * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slowEncodeCSCS(pix, w, h, protocol.CSCS12); err != nil {
			b.Fatal(err)
		}
	}
}
