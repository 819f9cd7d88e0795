package fb

import (
	"bytes"
	"image/png"
	"math/rand"
	"testing"
	"testing/quick"

	"slim/internal/protocol"
)

func TestFill(t *testing.T) {
	f := New(10, 10)
	f.Fill(protocol.Rect{X: 2, Y: 3, W: 4, H: 5}, protocol.RGB(1, 2, 3))
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			want := protocol.Pixel(0)
			if x >= 2 && x < 6 && y >= 3 && y < 8 {
				want = protocol.RGB(1, 2, 3)
			}
			if f.At(x, y) != want {
				t.Fatalf("pixel (%d,%d) = %06x, want %06x", x, y, f.At(x, y), want)
			}
		}
	}
}

func TestFillClips(t *testing.T) {
	f := New(4, 4)
	f.Fill(protocol.Rect{X: -2, Y: -2, W: 100, H: 100}, 0xffffff)
	for i, p := range f.Pix {
		if p != 0xffffff {
			t.Fatalf("pixel %d not filled", i)
		}
	}
	// Entirely outside: no-op, no panic.
	f.Fill(protocol.Rect{X: 100, Y: 100, W: 5, H: 5}, 0x123456)
}

func TestSetAndReadRect(t *testing.T) {
	f := New(8, 8)
	r := protocol.Rect{X: 1, Y: 1, W: 3, H: 2}
	pix := []protocol.Pixel{1, 2, 3, 4, 5, 6}
	if err := f.Set(r, pix); err != nil {
		t.Fatal(err)
	}
	got := f.ReadRect(r)
	for i := range pix {
		if got[i] != pix[i] {
			t.Fatalf("ReadRect[%d] = %d, want %d", i, got[i], pix[i])
		}
	}
}

// TestUniform checks Uniform against the pixels ReadRect copies out, on
// frame buffers of one color with a few pixels changed, over random and
// clipped rectangles.
func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := New(40, 30)
	for i := 0; i < 2000; i++ {
		if i%50 == 0 {
			f.Fill(f.Bounds(), protocol.Pixel(rng.Intn(3)))
			for n := rng.Intn(4); n > 0; n-- {
				f.SetAt(rng.Intn(f.W), rng.Intn(f.H), protocol.Pixel(rng.Intn(3)))
			}
		}
		r := protocol.Rect{X: rng.Intn(50) - 5, Y: rng.Intn(40) - 5, W: rng.Intn(20), H: rng.Intn(20)}
		pix := f.ReadRect(r)
		want := len(pix) > 0
		for _, p := range pix {
			want = want && p == pix[0]
		}
		c, got := f.Uniform(r)
		if got != want || got && c != pix[0] {
			t.Fatalf("Uniform(%v) = %#x, %v; the pixels say %v", r, c, got, want)
		}
	}
}

func TestSetWrongLength(t *testing.T) {
	f := New(8, 8)
	if err := f.Set(protocol.Rect{W: 2, H: 2}, []protocol.Pixel{1}); err == nil {
		t.Error("short SET accepted")
	}
}

func TestSetClipsPartial(t *testing.T) {
	f := New(4, 4)
	// 2x2 rect half off the right edge.
	r := protocol.Rect{X: 3, Y: 0, W: 2, H: 2}
	if err := f.Set(r, []protocol.Pixel{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if f.At(3, 0) != 1 || f.At(3, 1) != 3 {
		t.Errorf("visible pixels wrong: %d %d", f.At(3, 0), f.At(3, 1))
	}
}

func TestBitmap(t *testing.T) {
	f := New(8, 2)
	bits := []byte{0b10100000, 0b01000000}
	err := f.Bitmap(protocol.Rect{W: 3, H: 2}, protocol.RGB(255, 0, 0), protocol.RGB(0, 0, 255), bits)
	if err != nil {
		t.Fatal(err)
	}
	fg, bg := protocol.RGB(255, 0, 0), protocol.RGB(0, 0, 255)
	want := []protocol.Pixel{fg, bg, fg, bg, fg, bg}
	got := f.ReadRect(protocol.Rect{W: 3, H: 2})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pixel %d = %06x, want %06x", i, got[i], want[i])
		}
	}
}

func TestBitmapWrongLength(t *testing.T) {
	f := New(8, 8)
	if err := f.Bitmap(protocol.Rect{W: 9, H: 2}, 0, 1, []byte{0}); err == nil {
		t.Error("short bitmap accepted")
	}
}

func TestCopyNonOverlapping(t *testing.T) {
	f := New(8, 8)
	f.Fill(protocol.Rect{X: 0, Y: 0, W: 2, H: 2}, 0xaa)
	f.Copy(protocol.Rect{X: 0, Y: 0, W: 2, H: 2}, 4, 4)
	if f.At(4, 4) != 0xaa || f.At(5, 5) != 0xaa {
		t.Error("copy did not land")
	}
	if f.At(0, 0) != 0xaa {
		t.Error("source destroyed")
	}
}

// copyReference is an obviously correct COPY: snapshot, then blit.
func copyReference(f *Framebuffer, src protocol.Rect, dx, dy int) {
	snap := f.Snapshot()
	clipped := src.Intersect(f.Bounds())
	for y := 0; y < clipped.H; y++ {
		for x := 0; x < clipped.W; x++ {
			tx := dx + (clipped.X - src.X) + x
			ty := dy + (clipped.Y - src.Y) + y
			f.SetAt(tx, ty, snap.At(clipped.X+x, clipped.Y+y))
		}
	}
}

// Property: overlapping COPY matches the snapshot-based reference for all
// geometries and directions.
func TestCopyOverlappingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		f := New(24, 24)
		for j := range f.Pix {
			f.Pix[j] = protocol.Pixel(rng.Uint32() & 0xffffff)
		}
		ref := f.Snapshot()
		src := protocol.Rect{
			X: rng.Intn(20), Y: rng.Intn(20),
			W: 1 + rng.Intn(12), H: 1 + rng.Intn(12),
		}
		dx := src.X + rng.Intn(9) - 4
		dy := src.Y + rng.Intn(9) - 4
		f.Copy(src, dx, dy)
		copyReference(ref, src, dx, dy)
		if !f.Equal(ref) {
			t.Fatalf("case %d: overlap copy mismatch src=%v dst=(%d,%d)", i, src, dx, dy)
		}
	}
}

func TestDiff(t *testing.T) {
	a := New(10, 10)
	b := New(10, 10)
	if n, _ := a.DiffPixels(b); n != 0 {
		t.Errorf("identical diff = %d", n)
	}
	if _, changed := a.DiffRect(b); changed {
		t.Error("identical DiffRect reports change")
	}
	b.SetAt(3, 4, 1)
	b.SetAt(7, 8, 2)
	n, err := a.DiffPixels(b)
	if err != nil || n != 2 {
		t.Errorf("diff = %d, %v", n, err)
	}
	r, changed := a.DiffRect(b)
	if !changed || r != (protocol.Rect{X: 3, Y: 4, W: 5, H: 5}) {
		t.Errorf("DiffRect = %v %v", r, changed)
	}
	c := New(5, 5)
	if _, err := a.DiffPixels(c); err == nil {
		t.Error("mismatched sizes accepted")
	}
}

func TestApplyDispatch(t *testing.T) {
	f := New(16, 16)
	msgs := []protocol.Message{
		&protocol.Fill{Rect: protocol.Rect{W: 16, H: 16}, Color: 0x101010},
		&protocol.Set{Rect: protocol.Rect{W: 2, H: 1}, Pixels: []protocol.Pixel{1, 2}},
		&protocol.Copy{Rect: protocol.Rect{W: 2, H: 1}, DstX: 4, DstY: 4},
	}
	bm := &protocol.Bitmap{Rect: protocol.Rect{X: 8, Y: 8, W: 8, H: 1}, Fg: 0xff, Bg: 0}
	bm.Bits = []byte{0xf0}
	msgs = append(msgs, bm)
	for _, m := range msgs {
		if err := f.Apply(m); err != nil {
			t.Fatalf("Apply(%v): %v", m.Type(), err)
		}
	}
	if err := f.Apply(&protocol.KeyEvent{}); err == nil {
		t.Error("Apply accepted a non-display message")
	}
	if f.At(4, 4) != 1 || f.At(5, 4) != 2 {
		t.Error("copy after set wrong")
	}
}

func TestPNGRoundTrip(t *testing.T) {
	f := New(12, 7)
	f.Fill(protocol.Rect{W: 12, H: 7}, protocol.RGB(10, 20, 30))
	var buf bytes.Buffer
	if err := f.WritePNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 12 || img.Bounds().Dy() != 7 {
		t.Errorf("png size = %v", img.Bounds())
	}
	r, g, b, _ := img.At(5, 5).RGBA()
	if r>>8 != 10 || g>>8 != 20 || b>>8 != 30 {
		t.Errorf("png pixel = %d %d %d", r>>8, g>>8, b>>8)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, 5) did not panic")
		}
	}()
	New(0, 5)
}

// Property: Snapshot is deep — mutating the original leaves it unchanged.
func TestSnapshotIsDeep(t *testing.T) {
	f := func(w8, h8 uint8, x8, y8 uint8) bool {
		w, h := int(w8%16)+1, int(h8%16)+1
		f := New(w, h)
		s := f.Snapshot()
		f.SetAt(int(x8)%w, int(y8)%h, 0x42)
		return s.At(int(x8)%w, int(y8)%h) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtOutOfRange(t *testing.T) {
	f := New(4, 4)
	if f.At(-1, 0) != 0 || f.At(0, -1) != 0 || f.At(4, 0) != 0 || f.At(0, 4) != 0 {
		t.Error("out-of-range At != 0")
	}
	f.SetAt(-1, -1, 5) // must not panic
}
