package fb

import (
	"fmt"
	"sync"

	"slim/internal/protocol"
)

// YUV color-space support for the CSCS command (Table 1): the server
// converts frames to YUV, quantizes and subsamples them down to the
// format's bit budget, and the console converts back to RGB with optional
// bilinear scaling. Varying the color-space conversion parameters is how
// the paper trades quality for bandwidth between 16 and 5 bits per pixel
// (§8.1).
//
// This is the most pixel-intensive command in the protocol (Table 5 prices
// CSCS well above SET), so the codec here is fused and allocation-free in
// steady state: RGB→YUV conversion happens inside the bit-packing loop with
// chroma accumulated into quarter-size scratch planes (no full-resolution
// ys/us/vs intermediates), dequantization goes through precomputed lookup
// tables, and bilinear scaling runs in 16.16 fixed point. The original
// plane-at-a-time float implementations are kept in slow.go as the
// differential references.

// RGBToYUV converts one pixel to full-range BT.601 YUV components.
func RGBToYUV(p protocol.Pixel) (y, u, v uint8) {
	r, g, b := int32(p.R()), int32(p.G()), int32(p.B())
	// Fixed-point BT.601, full range.
	yy := (77*r + 150*g + 29*b + 128) >> 8
	uu := ((-43*r - 85*g + 128*b + 128) >> 8) + 128
	vv := ((128*r - 107*g - 21*b + 128) >> 8) + 128
	return clamp8(yy), clamp8(uu), clamp8(vv)
}

// YUVToRGB converts full-range BT.601 YUV components back to a pixel.
func YUVToRGB(y, u, v uint8) protocol.Pixel {
	yy, uu, vv := int32(y), int32(u)-128, int32(v)-128
	r := yy + ((359 * vv) >> 8)
	g := yy - ((88*uu + 183*vv) >> 8)
	b := yy + ((454 * uu) >> 8)
	return protocol.RGB(clamp8(r), clamp8(g), clamp8(b))
}

func clamp8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// bitWriter packs values MSB-first into a byte stream.
type bitWriter struct {
	buf  []byte
	bits uint32 // pending bits, left aligned in acc
	acc  uint64
}

func (w *bitWriter) write(v uint32, n uint) {
	w.acc = (w.acc << n) | uint64(v&((1<<n)-1))
	w.bits += uint32(n)
	for w.bits >= 8 {
		w.bits -= 8
		w.buf = append(w.buf, byte(w.acc>>w.bits))
	}
}

func (w *bitWriter) flush() {
	if w.bits > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.bits)))
		w.bits = 0
		w.acc = 0
	}
}

// bitReader unpacks MSB-first values from a byte stream. Reading past the
// end of buf sets overrun (and yields zero bits); DecodeCSCS validates
// payload lengths up front so overrun on its paths indicates a codec bug,
// which the decode path turns into an error instead of silently treating
// the zero padding as color.
type bitReader struct {
	buf     []byte
	pos     int
	bits    uint32
	acc     uint64
	overrun bool
}

func (r *bitReader) read(n uint) uint32 {
	for r.bits < uint32(n) {
		var b byte
		if r.pos < len(r.buf) {
			b = r.buf[r.pos]
			r.pos++
		} else {
			r.overrun = true
		}
		r.acc = (r.acc << 8) | uint64(b)
		r.bits += 8
	}
	r.bits -= uint32(n)
	return uint32(r.acc>>r.bits) & ((1 << n) - 1)
}

func (r *bitReader) align() {
	r.bits = 0
	r.acc = 0
}

// quantize reduces an 8-bit component to n bits. For n > 8 the value is
// placed in the high bits (the extra precision exists only so the 16 bpp
// format is bit-exact for luma gradients).
func quantize(v uint8, n int) uint32 {
	if n >= 8 {
		return uint32(v) << uint(n-8)
	}
	return uint32(v) >> uint(8-n)
}

// dequantize expands an n-bit component back to 8 bits with full-scale
// replication so white stays white.
func dequantize(q uint32, n int) uint8 {
	if n >= 8 {
		return uint8(q >> uint(n-8))
	}
	maxQ := uint32(1<<uint(n)) - 1
	if maxQ == 0 {
		return 0
	}
	return uint8((q*255 + maxQ/2) / maxQ)
}

// deqLUT[n][q] = dequantize(q, n) for the sub-byte bit widths the CSCS
// formats use. Indexing a table replaces a multiply+divide per component;
// widths above 8 bits dequantize with a shift and need no table.
var deqLUT [9][]uint8

func init() {
	for n := 1; n <= 8; n++ {
		lut := make([]uint8, 1<<uint(n))
		for q := range lut {
			lut[q] = dequantize(uint32(q), n)
		}
		deqLUT[n] = lut
	}
}

// yuvScratch holds the reusable intermediates of one encode/decode/scale
// call: quarter-resolution chroma accumulators and planes, and the
// horizontal resampling maps. Pooled so encoders and consoles running on
// different goroutines (one loop per shard or socket) each get their own.
type yuvScratch struct {
	usum, vsum   []int32 // encode: 2x2 block component sums
	us, vs       []uint8 // decode: dequantized chroma planes
	x0s, x1s     []int32 // scale: source column pairs per destination column
	txs          []int64 // scale: 16.16 horizontal blend weights
	hrow0, hrow1 []int32 // scale: cached horizontally-resampled rows (16.16 per channel)
}

var yuvScratchPool = sync.Pool{New: func() any { return new(yuvScratch) }}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
	}
	return s[:n]
}

func growPix(s []protocol.Pixel, n int) []protocol.Pixel {
	if cap(s) < n {
		return make([]protocol.Pixel, n)
	}
	return s[:n]
}

// EncodeCSCS compresses a w×h block of RGB pixels into the packed YUV
// payload of the given format: a full-resolution luma plane followed by
// 2x2-subsampled chroma planes, both bit-packed.
func EncodeCSCS(pixels []protocol.Pixel, w, h int, format protocol.CSCSFormat) ([]byte, error) {
	return AppendCSCS(make([]byte, 0, format.PayloadLen(w, h)), pixels, w, h, format)
}

// AppendCSCS appends the packed YUV payload to dst and returns it. The
// conversion is fused: one pass over the pixels computes YUV, bit-packs the
// quantized luma, and accumulates chroma sums into quarter-size scratch
// planes; a second pass over the (4× smaller) block grid packs the chroma.
func AppendCSCS(dst []byte, pixels []protocol.Pixel, w, h int, format protocol.CSCSFormat) ([]byte, error) {
	if len(pixels) != w*h {
		return nil, fmt.Errorf("fb: EncodeCSCS wants %d pixels, got %d", w*h, len(pixels))
	}
	if !format.Valid() {
		return nil, fmt.Errorf("fb: invalid CSCS format %d", format)
	}
	yBits, cBits := format.Params()
	cw, ch := (w+1)/2, (h+1)/2
	sc := yuvScratchPool.Get().(*yuvScratch)
	sc.usum = growI32(sc.usum, cw*ch)
	sc.vsum = growI32(sc.vsum, cw*ch)
	usum, vsum := sc.usum, sc.vsum
	for i := range usum {
		usum[i], vsum[i] = 0, 0
	}
	need := format.PayloadLen(w, h)
	if cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	bw := bitWriter{buf: dst}
	uy := uint(yBits)
	for y := 0; y < h; y++ {
		row := pixels[y*w : (y+1)*w]
		crow := usum[(y>>1)*cw:]
		crowV := vsum[(y>>1)*cw:]
		for x, p := range row {
			yy, uu, vv := RGBToYUV(p)
			bw.write(quantize(yy, yBits), uy)
			crow[x>>1] += int32(uu)
			crowV[x>>1] += int32(vv)
		}
	}
	bw.flush()
	// Chroma: block averages, identical rounding to the reference
	// (truncating integer division by the contributing pixel count).
	uc := uint(cBits)
	writePlane := func(sums []int32) {
		for by := 0; by < ch; by++ {
			bh := int32(min(2, h-by*2))
			row := sums[by*cw : (by+1)*cw]
			for bx, sum := range row {
				n := int32(min(2, w-bx*2)) * bh
				bw.write(quantize(uint8(sum/n), cBits), uc)
			}
		}
	}
	writePlane(usum)
	writePlane(vsum)
	bw.flush()
	yuvScratchPool.Put(sc)
	return bw.buf, nil
}

// DecodeCSCS expands a packed YUV payload back into w×h RGB pixels.
func DecodeCSCS(data []byte, w, h int, format protocol.CSCSFormat) ([]protocol.Pixel, error) {
	return DecodeCSCSInto(nil, data, w, h, format)
}

// DecodeCSCSInto decodes into dst (grown only when capacity is too small)
// and returns it. The chroma planes are dequantized through lookup tables
// into quarter-size scratch; the luma plane is then streamed straight into
// the RGB combine, with the per-chroma-block color terms computed once per
// 2x2 block column instead of once per pixel.
func DecodeCSCSInto(dst []protocol.Pixel, data []byte, w, h int, format protocol.CSCSFormat) ([]protocol.Pixel, error) {
	if !format.Valid() {
		return nil, fmt.Errorf("fb: invalid CSCS format %d", format)
	}
	if want := format.PayloadLen(w, h); len(data) != want {
		return nil, fmt.Errorf("fb: DecodeCSCS wants %d bytes, got %d", want, len(data))
	}
	yBits, cBits := format.Params()
	cw, ch := (w+1)/2, (h+1)/2
	sc := yuvScratchPool.Get().(*yuvScratch)
	sc.us = growU8(sc.us, cw*ch)
	sc.vs = growU8(sc.vs, cw*ch)
	us, vs := sc.us, sc.vs
	// Chroma first: it starts at the byte-aligned end of the luma plane.
	cr := bitReader{buf: data, pos: (w*h*yBits + 7) / 8}
	clut := deqLUT[cBits]
	uc := uint(cBits)
	for i := range us {
		us[i] = clut[cr.read(uc)]
	}
	for i := range vs {
		vs[i] = clut[cr.read(uc)]
	}
	dst = growPix(dst, w*h)
	// Luma streams from the front, combined with chroma on the fly.
	lr := bitReader{buf: data}
	var ylut []uint8
	if yBits <= 8 {
		ylut = deqLUT[yBits]
	}
	yShift := uint(0)
	if yBits > 8 {
		yShift = uint(yBits - 8)
	}
	uy := uint(yBits)
	for y := 0; y < h; y++ {
		urow := us[(y>>1)*cw:]
		vrow := vs[(y>>1)*cw:]
		out := dst[y*w : (y+1)*w]
		var rAdd, gSub, bAdd int32
		if yBits == 8 {
			// Byte-aligned luma (CSCS-12/16): skip the bit reader, and an
			// 8-bit dequantize is the identity.
			lrow := data[y*w : (y+1)*w]
			for x := range out {
				if x&1 == 0 {
					uu := int32(urow[x>>1]) - 128
					vv := int32(vrow[x>>1]) - 128
					rAdd = (359 * vv) >> 8
					gSub = (88*uu + 183*vv) >> 8
					bAdd = (454 * uu) >> 8
				}
				yy := int32(lrow[x])
				out[x] = protocol.RGB(clamp8(yy+rAdd), clamp8(yy-gSub), clamp8(yy+bAdd))
			}
			continue
		}
		for x := range out {
			if x&1 == 0 {
				uu := int32(urow[x>>1]) - 128
				vv := int32(vrow[x>>1]) - 128
				rAdd = (359 * vv) >> 8
				gSub = (88*uu + 183*vv) >> 8
				bAdd = (454 * uu) >> 8
			}
			var yy int32
			if ylut != nil {
				yy = int32(ylut[lr.read(uy)])
			} else {
				yy = int32(lr.read(uy) >> yShift)
			}
			out[x] = protocol.RGB(clamp8(yy+rAdd), clamp8(yy-gSub), clamp8(yy+bAdd))
		}
	}
	overrun := cr.overrun || lr.overrun
	yuvScratchPool.Put(sc)
	if overrun {
		// Unreachable for length-validated payloads; a trip here means the
		// bit accounting above regressed, and zero padding must not be
		// presented as color.
		return nil, fmt.Errorf("fb: DecodeCSCS read past payload end (%d bytes, %dx%d %v)", len(data), w, h, format)
	}
	return dst, nil
}

// ScaleBilinear resamples a sw×sh pixel block to dw×dh with bilinear
// filtering — the console-side scaling that lets a half-size video stream
// fill the screen for a quarter of the bandwidth (§7, §8.1).
func ScaleBilinear(src []protocol.Pixel, sw, sh, dw, dh int) ([]protocol.Pixel, error) {
	return ScaleBilinearInto(nil, src, sw, sh, dw, dh)
}

// ScaleBilinearInto resamples into dst (grown only when capacity is too
// small) and returns it. All blend arithmetic is 16.16 fixed point; the
// horizontal source maps are computed once per call instead of once per
// row. Results match the float reference within ±1 per channel.
func ScaleBilinearInto(dst []protocol.Pixel, src []protocol.Pixel, sw, sh, dw, dh int) ([]protocol.Pixel, error) {
	if len(src) != sw*sh {
		return nil, fmt.Errorf("fb: ScaleBilinear wants %d pixels, got %d", sw*sh, len(src))
	}
	if dw <= 0 || dh <= 0 {
		return nil, fmt.Errorf("fb: invalid destination %dx%d", dw, dh)
	}
	dst = growPix(dst, dw*dh)
	if dw == sw && dh == sh {
		copy(dst, src)
		return dst, nil
	}
	sc := yuvScratchPool.Get().(*yuvScratch)
	sc.x0s = growI32(sc.x0s, dw)
	sc.x1s = growI32(sc.x1s, dw)
	sc.txs = growI64(sc.txs, dw)
	sc.hrow0 = growI32(sc.hrow0, dw*3)
	sc.hrow1 = growI32(sc.hrow1, dw*3)
	x0s, x1s, txs := sc.x0s, sc.x1s, sc.txs
	for dx := 0; dx < dw; dx++ {
		// Destination pixel center in source space, 16.16.
		fx := int64(2*dx+1)*int64(sw)<<15/int64(dw) - 1<<15
		if fx < 0 {
			fx = 0
		}
		x0 := fx >> 16
		x1 := x0 + 1
		if x1 >= int64(sw) {
			x1 = int64(sw) - 1
		}
		x0s[dx], x1s[dx], txs[dx] = int32(x0), int32(x1), fx&0xffff
	}
	// Separable resample: horizontally-blended rows (16.16 per channel,
	// no intermediate rounding) are cached and shared by every output row
	// that straddles the same source row pair — on an upscale each source
	// row is blended once, not dh/sh times. The vertical blend then rounds
	// exactly like the fused lerp2, so results are unchanged.
	h0, h1 := sc.hrow0, sc.hrow1
	r0, r1 := -1, -1
	hfill := func(buf []int32, y int) {
		row := src[y*sw : (y+1)*sw]
		j := 0
		for dx := 0; dx < dw; dx++ {
			p0, p1 := row[x0s[dx]], row[x1s[dx]]
			tx := int32(txs[dx])
			r := int32(p0.R())
			g := int32(p0.G())
			b := int32(p0.B())
			buf[j] = r<<16 + (int32(p1.R())-r)*tx
			buf[j+1] = g<<16 + (int32(p1.G())-g)*tx
			buf[j+2] = b<<16 + (int32(p1.B())-b)*tx
			j += 3
		}
	}
	for dy := 0; dy < dh; dy++ {
		fy := int64(2*dy+1)*int64(sh)<<15/int64(dh) - 1<<15
		if fy < 0 {
			fy = 0
		}
		y0 := int(fy >> 16)
		ty := fy & 0xffff
		y1 := y0 + 1
		if y1 >= sh {
			y1 = sh - 1
		}
		// y0/y1 advance monotonically; the previous bottom row usually
		// becomes the new top, so swap instead of recomputing.
		if y0 != r0 {
			if y0 == r1 {
				h0, h1, r0, r1 = h1, h0, r1, r0
			} else {
				hfill(h0, y0)
				r0 = y0
			}
		}
		if y1 != r1 {
			hfill(h1, y1)
			r1 = y1
		}
		out := dst[dy*dw : (dy+1)*dw]
		j := 0
		for dx := range out {
			a0, a1, a2 := h0[j], h0[j+1], h0[j+2]
			vr := int64(a0) + (int64(h1[j]-a0)*ty)>>16
			vg := int64(a1) + (int64(h1[j+1]-a1)*ty)>>16
			vb := int64(a2) + (int64(h1[j+2]-a2)*ty)>>16
			out[dx] = protocol.RGB(
				uint8((vr+1<<15)>>16), uint8((vg+1<<15)>>16), uint8((vb+1<<15)>>16))
			j += 3
		}
	}
	sc.hrow0, sc.hrow1 = h0, h1
	yuvScratchPool.Put(sc)
	return dst, nil
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// ApplyCSCS decodes a CSCS command — YUV expansion plus optional bilinear
// scale — and writes the result into the frame buffer at the destination
// rectangle. Decode and scale land in frame-buffer-owned scratch surfaces,
// so the steady-state video path allocates nothing per command.
func (f *Framebuffer) ApplyCSCS(m *protocol.CSCS) error {
	// The scaled image is materialised before Set clips it, and the wire
	// lets 16 bits of width and height claim 16 GiB of it.
	if m.Dst.W > f.W || m.Dst.H > f.H {
		return fmt.Errorf("fb: CSCS destination %dx%d exceeds the %dx%d frame buffer", m.Dst.W, m.Dst.H, f.W, f.H)
	}
	var err error
	f.cscsDecode, err = DecodeCSCSInto(f.cscsDecode, m.Data, m.Src.W, m.Src.H, m.Format)
	if err != nil {
		return err
	}
	pixels := f.cscsDecode
	if m.Dst.W != m.Src.W || m.Dst.H != m.Src.H {
		f.cscsScale, err = ScaleBilinearInto(f.cscsScale, pixels, m.Src.W, m.Src.H, m.Dst.W, m.Dst.H)
		if err != nil {
			return err
		}
		pixels = f.cscsScale
	}
	return f.Set(m.Dst, pixels)
}
