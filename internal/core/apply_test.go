package core

import (
	"math/rand"
	"testing"

	"slim/internal/fb"
	"slim/internal/protocol"
)

// opKinds is every op kind in shapes each codec cuts differently: a
// one-row strip, a column, a rect one pixel wider than a gen-1 SET row
// holds, a bicolor image, text, and video both sent at size and scaled.
func opKinds(rng *rand.Rand) map[string]Op {
	image := func(r protocol.Rect, colors uint32) ImageOp {
		pix := make([]protocol.Pixel, r.Pixels())
		for i := range pix {
			pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
			if colors == 2 {
				pix[i] = protocol.Pixel(0x102030 * (rng.Uint32() & 1))
			}
		}
		return ImageOp{Rect: r, Pixels: pix}
	}
	video := func(src, dst protocol.Rect, f protocol.CSCSFormat) VideoOp {
		return VideoOp{Src: src, Dst: dst, Format: f, Pixels: image(src, 0).Pixels}
	}
	text := protocol.Rect{X: 3, Y: 5, W: 150, H: 30}
	bits := make([]byte, protocol.BitmapRowBytes(text.W)*text.H)
	rng.Read(bits)
	return map[string]Op{
		"fill":         FillOp{Rect: protocol.Rect{X: 3, Y: 5, W: 100, H: 40}, Color: 0x405060},
		"text":         TextOp{Rect: text, Fg: 0xffffff, Bg: 0x000040, Bits: bits},
		"scroll":       ScrollOp{Rect: protocol.Rect{X: 10, Y: 10, W: 100, H: 50}, DX: 7, DY: -3},
		"noise":        image(protocol.Rect{X: 5, Y: 3, W: 150, H: 100}, 0),
		"noise-row":    image(protocol.Rect{X: 0, Y: 7, W: 640, H: 1}, 0),
		"noise-column": image(protocol.Rect{X: 9, Y: 0, W: 1, H: 480}, 0),
		"noise-wide":   image(protocol.Rect{X: 1, Y: 1, W: 465, H: 17}, 0),
		"bicolor":      image(protocol.Rect{X: 20, Y: 30, W: 64, H: 64}, 2),
		"video":        video(protocol.Rect{W: 320, H: 240}, protocol.Rect{X: 8, Y: 8, W: 320, H: 240}, protocol.CSCS16),
		"video-scaled": video(protocol.Rect{W: 64, H: 48}, protocol.Rect{X: 100, Y: 60, W: 128, H: 96}, protocol.CSCS8),
	}
}

// twoEncoders returns two encoders over the same noisy 640×480 screen, on
// the gen-2 tile path when gen2 is set.
func twoEncoders(gen2 bool) (a, b *Encoder) {
	rng := rand.New(rand.NewSource(3))
	a, b = NewEncoder(640, 480), NewEncoder(640, 480)
	for i := range a.FB.Pix {
		a.FB.Pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	copy(b.FB.Pix, a.FB.Pix)
	if gen2 {
		a.EnableCodec2(0)
		b.EnableCodec2(0)
	}
	return a, b
}

// ownFrame is before with video frame o painted as its own pixels at
// o.Dst: exactly them when Dst is Src's size, else ScaleBilinear of them.
func ownFrame(t *testing.T, before *fb.Framebuffer, o VideoOp) *fb.Framebuffer {
	t.Helper()
	want, pix := before.Snapshot(), o.Pixels
	if o.Dst.W != o.Src.W || o.Dst.H != o.Src.H {
		var err error
		if pix, err = fb.ScaleBilinear(pix, o.Src.W, o.Src.H, o.Dst.W, o.Dst.H); err != nil {
			t.Fatal(err)
		}
	}
	if err := want.Set(o.Dst, pix); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestApplyPaintsWhatEncodePaints: Apply leaves the frame buffer Encode
// leaves for every op kind but video on both generations, and a video
// frame's own pixels at its Dst (ownFrame), never its lossy CSCS
// reconstruction; it reports the rect Encode's commands write and emits
// nothing — no sequence number, no sent-log record, no tile-cache entry.
func TestApplyPaintsWhatEncodePaints(t *testing.T) {
	for _, gen2 := range []bool{false, true} {
		for name, op := range opKinds(rand.New(rand.NewSource(1))) {
			enc, app := twoEncoders(gen2)
			dgs, err := enc.Encode(op)
			if err != nil {
				t.Fatal(err)
			}
			want := enc.FB
			if o, ok := op.(VideoOp); ok {
				want = ownFrame(t, app.FB, o)
			}
			w, err := app.Apply(op)
			if err != nil {
				t.Fatal(err)
			}
			if !app.FB.Equal(want) {
				n, _ := app.FB.DiffPixels(want)
				t.Errorf("gen2=%v %s: Apply's frame buffer differs from the one wanted in %d pixels", gen2, name, n)
			}
			var wrote fb.Region
			for _, d := range dgs {
				wrote.Add(WriteRect(d.Msg).Intersect(enc.FB.Bounds()))
			}
			if want := wrote.Bounds(); w != want {
				t.Errorf("gen2=%v %s: Apply wrote %v, Encode's commands %v", gen2, name, w, want)
			}
			if _, logged := app.sent.get(1); logged || app.LastSeq() != 0 || app.Stats.TotalCommands() != 0 {
				t.Errorf("gen2=%v %s: Apply emitted (seq %d, logged %v)", gen2, name, app.LastSeq(), logged)
			}
			if gen2 && app.codec2.cache.Len() != 0 {
				t.Errorf("%s: Apply inserted %d tile-cache keys", name, app.codec2.cache.Len())
			}
		}
	}
}

// TestWireBoundCoversEncode: for every op kind, on both generations, the
// bytes Encode puts on the wire never exceed WireBound — it is what the
// governor admits a paint by before the paint is encoded.
func TestWireBoundCoversEncode(t *testing.T) {
	for _, gen2 := range []bool{false, true} {
		for name, op := range opKinds(rand.New(rand.NewSource(2))) {
			enc, _ := twoEncoders(gen2)
			dgs, err := enc.Encode(op)
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			for _, d := range dgs {
				sent += len(d.Wire)
			}
			if bound := WireBound(op); sent > bound || sent == 0 {
				t.Errorf("gen2=%v %s: %d commands, %d wire bytes; bound %d", gen2, name, len(dgs), sent, bound)
			}
		}
	}
}
