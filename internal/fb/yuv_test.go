package fb

import (
	"bytes"
	"math/rand"
	"testing"

	"slim/internal/protocol"
)

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func pixelError(a, b protocol.Pixel) int {
	dr := absInt(int(a.R()) - int(b.R()))
	dg := absInt(int(a.G()) - int(b.G()))
	db := absInt(int(a.B()) - int(b.B()))
	if dg > dr {
		dr = dg
	}
	if db > dr {
		dr = db
	}
	return dr
}

func TestYUVRoundTripGray(t *testing.T) {
	// Grayscale has no chroma, so conversion should be near exact.
	for v := 0; v < 256; v += 5 {
		p := protocol.RGB(uint8(v), uint8(v), uint8(v))
		y, u, vv := RGBToYUV(p)
		got := YUVToRGB(y, u, vv)
		if e := pixelError(p, got); e > 2 {
			t.Errorf("gray %d: error %d", v, e)
		}
	}
}

func TestYUVRoundTripColors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	worst := 0
	for i := 0; i < 10000; i++ {
		p := protocol.Pixel(rng.Uint32() & 0xffffff)
		y, u, v := RGBToYUV(p)
		got := YUVToRGB(y, u, v)
		if e := pixelError(p, got); e > worst {
			worst = e
		}
	}
	// Fixed-point BT.601 roundtrip error stays small.
	if worst > 4 {
		t.Errorf("worst YUV roundtrip error = %d, want <= 4", worst)
	}
}

func TestBitPackRoundTrip(t *testing.T) {
	w := &bitWriter{}
	vals := []uint32{3, 0, 7, 1, 5, 2, 6, 4, 3, 3, 0, 7}
	for _, v := range vals {
		w.write(v, 3)
	}
	w.flush()
	r := &bitReader{buf: w.buf}
	for i, want := range vals {
		if got := r.read(3); got != want {
			t.Fatalf("value %d = %d, want %d", i, got, want)
		}
	}
}

// TestBitPackerMatchesBitAtATime pins the word-at-a-time packer and
// unpacker, which slowEncodeCSCS and slowDecodeCSCS share with the fast
// codec, to a packer that handles one bit at a time: runs of values of
// every width from 1 to 32 bits, written one by one and a run at a time
// and flushed at arbitrary points, must give its bytes, and must read back
// whole, also after a jump to a byte position.
func TestBitPackerMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		var want []byte
		var wantBits int
		put := func(v uint32, n uint) {
			for i := int(n) - 1; i >= 0; i-- {
				if wantBits%8 == 0 {
					want = append(want, 0)
				}
				want[len(want)-1] |= byte(v>>uint(i)&1) << (7 - uint(wantBits%8))
				wantBits++
			}
		}
		type run struct {
			vals  []uint32
			n     uint
			start int // byte offset of a run that follows a flush
		}
		var runs []run
		w := &bitWriter{}
		for range 1 + rng.Intn(12) {
			n := uint(1 + rng.Intn(32))
			vals := make([]uint32, rng.Intn(40))
			for i := range vals {
				vals[i] = uint32(rng.Uint64()) & (1<<n - 1)
				put(vals[i], n)
			}
			runs = append(runs, run{vals: vals, n: n, start: -1})
			if rng.Intn(2) == 0 {
				w.pack(vals, n)
			} else {
				for _, v := range vals {
					w.write(v, n)
				}
			}
			if rng.Intn(3) == 0 {
				w.flush()
				wantBits = (wantBits + 7) / 8 * 8
				runs = append(runs, run{start: wantBits / 8})
			}
		}
		w.flush()
		if !bytes.Equal(w.buf, want) {
			t.Fatalf("trial %d: packed %x, want %x", trial, w.buf, want)
		}
		r := &bitReader{buf: w.buf}
		for i, rn := range runs {
			if rn.start >= 0 {
				r.align()
				r.pos = rn.start
				continue
			}
			got := make([]uint32, len(rn.vals))
			if i%2 == 0 {
				r.unpack(got, rn.n)
			} else {
				for j := range got {
					got[j] = r.read(rn.n)
				}
			}
			for j := range got {
				if got[j] != rn.vals[j] {
					t.Fatalf("trial %d run %d: value %d = %#x, want %#x (%d bits)", trial, i, j, got[j], rn.vals[j], rn.n)
				}
			}
		}
		if r.overrun {
			t.Fatalf("trial %d: reading back what was written overran", trial)
		}
	}
}

// TestRGBToYUVMatchesClampedFormula checks RGBToYUV, which both the
// codec and its slow references convert with, against the signed
// formula with all six clamps on every 24-bit color.
func TestRGBToYUVMatchesClampedFormula(t *testing.T) {
	for c := protocol.Pixel(0); c < 1<<24; c++ {
		r, g, b := int32(c.R()), int32(c.G()), int32(c.B())
		wy := clamp8((77*r + 150*g + 29*b + 128) >> 8)
		wu := clamp8(((-43*r - 85*g + 128*b + 128) >> 8) + 128)
		wv := clamp8(((128*r - 107*g - 21*b + 128) >> 8) + 128)
		if y, u, v := RGBToYUV(c); y != wy || u != wu || v != wv {
			t.Fatalf("RGBToYUV(%06x) = %d, %d, %d; want %d, %d, %d", c, y, u, v, wy, wu, wv)
		}
		if y, u, v := rgbToYUVLanes(c); y != uint32(wy) || u != uint32(wu) || v != uint32(wv) {
			t.Fatalf("rgbToYUVLanes(%06x) = %d, %d, %d; want %d, %d, %d", c, y, u, v, wy, wu, wv)
		}
	}
}

func TestQuantizeDequantizeExtremes(t *testing.T) {
	for _, bits := range []int{2, 4, 6, 8, 12} {
		if dequantize(quantize(0, bits), bits) != 0 {
			t.Errorf("bits=%d: black not preserved", bits)
		}
		if dequantize(quantize(255, bits), bits) != 255 {
			t.Errorf("bits=%d: white not preserved", bits)
		}
	}
}

func TestEncodeDecodeCSCSLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, f := range []protocol.CSCSFormat{protocol.CSCS16, protocol.CSCS12, protocol.CSCS8, protocol.CSCS6, protocol.CSCS5} {
		for _, sz := range [][2]int{{2, 2}, {3, 3}, {16, 8}, {17, 5}} {
			w, h := sz[0], sz[1]
			pix := make([]protocol.Pixel, w*h)
			for i := range pix {
				pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
			}
			data, err := EncodeCSCS(pix, w, h, f)
			if err != nil {
				t.Fatalf("%v %dx%d: %v", f, w, h, err)
			}
			if len(data) != f.PayloadLen(w, h) {
				t.Fatalf("%v %dx%d: payload %d, want %d", f, w, h, len(data), f.PayloadLen(w, h))
			}
			out, err := DecodeCSCS(data, w, h, f)
			if err != nil {
				t.Fatalf("%v %dx%d decode: %v", f, w, h, err)
			}
			if len(out) != w*h {
				t.Fatalf("%v: decoded %d pixels", f, len(out))
			}
		}
	}
}

func TestCSCSQualityOnSmoothContent(t *testing.T) {
	// Smooth gradients (the video use case) should survive 12 bpp well.
	const w, h = 32, 32
	pix := make([]protocol.Pixel, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pix[y*w+x] = protocol.RGB(uint8(x*8), uint8(y*8), 128)
		}
	}
	data, err := EncodeCSCS(pix, w, h, protocol.CSCS12)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeCSCS(data, w, h, protocol.CSCS12)
	if err != nil {
		t.Fatal(err)
	}
	var worst int
	for i := range pix {
		if e := pixelError(pix[i], out[i]); e > worst {
			worst = e
		}
	}
	// Chroma subsampling over a gradient costs a few levels at most.
	if worst > 24 {
		t.Errorf("worst 12bpp error on gradient = %d", worst)
	}
	// 5 bpp is lossier but must stay recognizable.
	data5, _ := EncodeCSCS(pix, w, h, protocol.CSCS5)
	out5, _ := DecodeCSCS(data5, w, h, protocol.CSCS5)
	var sum int
	for i := range pix {
		sum += pixelError(pix[i], out5[i])
	}
	// 2-bit chroma quantizes to 4 levels; on a full-saturation gradient
	// the average max-component error lands near 45 of 255.
	if avg := sum / len(pix); avg > 56 {
		t.Errorf("avg 5bpp error = %d, want <= 56", avg)
	}
}

func TestCSCSErrors(t *testing.T) {
	if _, err := EncodeCSCS(make([]protocol.Pixel, 3), 2, 2, protocol.CSCS12); err == nil {
		t.Error("wrong pixel count accepted")
	}
	if _, err := EncodeCSCS(make([]protocol.Pixel, 4), 2, 2, protocol.CSCSFormat(9)); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := DecodeCSCS([]byte{1, 2, 3}, 4, 4, protocol.CSCS12); err == nil {
		t.Error("short payload accepted")
	}
}

func TestScaleBilinearIdentity(t *testing.T) {
	pix := []protocol.Pixel{1, 2, 3, 4}
	out, err := ScaleBilinear(pix, 2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pix {
		if out[i] != pix[i] {
			t.Fatalf("identity scale changed pixel %d", i)
		}
	}
	// And it's a copy.
	out[0] = 99
	if pix[0] == 99 {
		t.Error("identity scale aliases input")
	}
}

func TestScaleBilinearUniform(t *testing.T) {
	// Scaling a uniform block stays uniform at any destination size.
	pix := make([]protocol.Pixel, 4*3)
	for i := range pix {
		pix[i] = protocol.RGB(10, 200, 30)
	}
	out, err := ScaleBilinear(pix, 4, 3, 9, 17)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out {
		if p != protocol.RGB(10, 200, 30) {
			t.Fatalf("uniform scale pixel %d = %06x", i, p)
		}
	}
}

func TestScaleBilinearUpDouble(t *testing.T) {
	// 1x2 black/white scaled to 1x4: monotone ramp.
	pix := []protocol.Pixel{protocol.RGB(0, 0, 0), protocol.RGB(255, 255, 255)}
	out, err := ScaleBilinear(pix, 2, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, p := range out {
		v := int(p.R())
		if v < prev {
			t.Fatalf("ramp not monotone: %v", out)
		}
		prev = v
	}
	if out[0].R() != 0 || out[3].R() != 255 {
		t.Errorf("ramp endpoints = %d %d", out[0].R(), out[3].R())
	}
}

func TestScaleBilinearErrors(t *testing.T) {
	if _, err := ScaleBilinear(make([]protocol.Pixel, 3), 2, 2, 4, 4); err == nil {
		t.Error("wrong source length accepted")
	}
	if _, err := ScaleBilinear(make([]protocol.Pixel, 4), 2, 2, 0, 4); err == nil {
		t.Error("zero destination accepted")
	}
}

func TestApplyCSCSScales(t *testing.T) {
	f := New(32, 32)
	const sw, sh = 8, 8
	pix := make([]protocol.Pixel, sw*sh)
	for i := range pix {
		pix[i] = protocol.RGB(200, 100, 50)
	}
	data, err := EncodeCSCS(pix, sw, sh, protocol.CSCS12)
	if err != nil {
		t.Fatal(err)
	}
	msg := &protocol.CSCS{
		Src:    protocol.Rect{W: sw, H: sh},
		Dst:    protocol.Rect{X: 4, Y: 4, W: 16, H: 16},
		Format: protocol.CSCS12,
		Data:   data,
	}
	if err := f.ApplyCSCS(msg); err != nil {
		t.Fatal(err)
	}
	center := f.At(12, 12)
	if pixelError(center, protocol.RGB(200, 100, 50)) > 16 {
		t.Errorf("scaled CSCS center = %06x", center)
	}
	if f.At(0, 0) != 0 {
		t.Error("CSCS painted outside destination")
	}
	// A destination larger than the frame buffer is refused before the
	// scaled image is sized: 65535x65535 would be 16 GiB of it. (Found by
	// FuzzConsoleHandleDatagram.)
	msg.Dst = protocol.Rect{W: 65535, H: 65535}
	if err := f.ApplyCSCS(msg); err == nil {
		t.Error("CSCS scaled to 65535x65535 accepted")
	}
}
