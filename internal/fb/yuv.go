package fb

import (
	"encoding/binary"
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
// steady state. It has one intermediate form, the quantized codes
// (cscsCodes): luma a horizontal pixel pair per value, chroma one value
// per 2x2 block. Encoding quantizes pixels into codes and packs them;
// decoding unpacks codes; one loop (reconstruct) turns codes into RGB for
// both, so a server paints the pixels its console will decode from the
// codes it has just quantized, never decoding its own payload
// (PaintAndPackCSCS). RGB→YUV conversion happens inside the luma quantizing
// loop, three table lookups a pixel, with chroma accumulated into a
// quarter-size scratch plane and a 2x2 block averaged with a shift. Bits
// move a 64-bit word at a time, through one packer and one unpacker for
// every width. A format whose Y, U and V codes fit 14 bits reconstructs a
// pixel with one lookup in its RGB table; the others dequantize through
// lookup tables. Bilinear scaling runs in 16.16 fixed point. At the benchmark's 320x240 CSCS-6
// movie window, encode takes 0.85 ms and decode 0.43 ms on a 2-vCPU Xeon
// VM, against 2.3 and 2.0 ms for the references
// (BenchmarkHotpath_CSCS6*). The original plane-at-a-time float
// implementations are kept in slow.go as the differential references.

// RGBToYUV converts one pixel to full-range BT.601 YUV components. The
// chroma offsets are added before the shift, so every term is
// non-negative, and of the clamps the formula needs in general only two
// can bite: y stays in 0..255, and u and v in 1..256.
func RGBToYUV(p protocol.Pixel) (y, u, v uint8) {
	r, g, b := uint32(p.R()), uint32(p.G()), uint32(p.B())
	// Fixed-point BT.601, full range.
	yy := (77*r + 150*g + 29*b + 128) >> 8
	uu := (128*b + 128<<8 + 128 - 43*r - 85*g) >> 8
	vv := (128*r + 128<<8 + 128 - 107*g - 21*b) >> 8
	return uint8(yy), uint8(min(uu, 255)), uint8(min(vv, 255))
}

// yuvLanes[c][x] is channel c's (R, G, B) share of RGBToYUV in three
// 21-bit lanes, Y at bit 42, U at 21 and V at 0: each negative term is
// rewritten on 255-x so that every lane only adds, and the rounding
// constants ride in R's entries. A pixel is then three lookups and two
// adds, and each lane shifted down 8 is the formula's result, U and V
// still clamped at 255 (rgbToYUVLanes; no lane exceeds 65,536, so none
// carries into the next).
var yuvLanes [3][256]uint64

func init() {
	for x := uint64(0); x < 256; x++ {
		yuvLanes[0][x] = (77*x+128)<<42 | (43*(255-x)+256)<<21 | (128*x + 256)
		yuvLanes[1][x] = 150*x<<42 | 85*(255-x)<<21 | 107*(255-x)
		yuvLanes[2][x] = 29*x<<42 | 128*x<<21 | 21*(255-x)
	}
}

// rgbToYUVLanes is RGBToYUV through yuvLanes: the encoder's per-pixel
// conversion.
func rgbToYUVLanes(p protocol.Pixel) (y, u, v uint32) {
	s := yuvLanes[0][p.R()] + yuvLanes[1][p.G()] + yuvLanes[2][p.B()]
	return uint32(s >> 50), min(uint32(s>>29)&0x1ff, 255), min(uint32(s>>8)&0x1ff, 255)
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

// bitWriter packs values of 1 to 32 bits MSB-first into a byte stream, a
// 64-bit word at a time: values gather at the top of acc, and a full word
// is stored big-endian in one append. Any width and any sequence of widths
// go through the same two branches.
type bitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, left aligned
	bits uint   // how many of acc's top bits are pending (0..63)
}

func (w *bitWriter) write(v uint32, n uint) {
	w.pack([]uint32{v}, n)
}

// pack writes each value of src in n bits: the codec's loops hand over a
// row of values per call instead of paying a call per value.
func (w *bitWriter) pack(src []uint32, n uint) {
	acc, bits, buf := w.acc, w.bits, w.buf // in registers for the loop
	mask := uint64(1)<<n - 1
	for _, v := range src {
		x := uint64(v) & mask
		if bits+n < 64 {
			bits += n
			acc |= x << (64 - bits)
			continue
		}
		// x's high bits complete the word; its low bits stay pending.
		bits += n - 64
		buf = binary.BigEndian.AppendUint64(buf, acc|x>>bits)
		acc = x << (64 - bits) // a shift by 64 leaves 0
	}
	w.acc, w.bits, w.buf = acc, bits, buf
}

// flush stores the pending bits, zero-padded to a whole byte.
func (w *bitWriter) flush() {
	for n := (w.bits + 7) / 8; n > 0; n-- {
		w.buf = append(w.buf, byte(w.acc>>56))
		w.acc <<= 8
	}
	w.acc, w.bits = 0, 0
}

// bitReader unpacks MSB-first values of 1 to 32 bits from a byte stream,
// refilling a 64-bit word at a time: while 8 bytes remain at pos it loads
// them in one big-endian read and keeps the whole bytes that fit; the
// bits of a byte that only partly fit sit below the valid ones and are
// loaded again, identically, by the next refill. Only the last 7 bytes of
// buf are loaded one at a time.
//
// Reading past the end of buf sets overrun (and yields zero bits);
// DecodeCSCS validates payload lengths up front so overrun on its paths
// indicates a codec bug, which the decode path turns into an error instead
// of silently treating the zero padding as color.
type bitReader struct {
	buf     []byte
	pos     int    // next byte to load
	acc     uint64 // valid bits, left aligned
	bits    uint   // how many of acc's top bits are valid
	overrun bool
}

func (r *bitReader) read(n uint) uint32 {
	var v [1]uint32
	r.unpack(v[:], n)
	return v[0]
}

// unpack reads len(dst) consecutive n-bit values into dst: the codec's
// loops take a row of values per call instead of paying a call per value.
func (r *bitReader) unpack(dst []uint32, n uint) {
	acc, bits := r.acc, r.bits // in registers for the loop
	for i := range dst {
		if bits < n {
			r.acc, r.bits = acc, bits
			r.refill(n)
			acc, bits = r.acc, r.bits
		}
		dst[i] = uint32(acc >> (64 - n))
		acc <<= n
		bits -= n
	}
	r.acc, r.bits = acc, bits
}

func (r *bitReader) refill(n uint) {
	if r.pos+8 <= len(r.buf) {
		r.acc |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.bits
		k := (64 - r.bits) >> 3
		r.pos += int(k)
		r.bits += k << 3
		return
	}
	for r.bits <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.bits)
		r.pos++
		r.bits += 8
	}
	for r.bits < n {
		r.overrun = true
		r.bits += 8
	}
}

// align drops the bits loaded but not read, so the next read starts at
// pos.
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
// call: the block's codes, the encoder's quarter-resolution chroma
// accumulators, and the horizontal resampling maps. Pooled so encoders
// and consoles running on different goroutines (one loop per shard or
// socket) each get their own.
type yuvScratch struct {
	codes        cscsCodes
	uvsum        []uint32 // encode: 2x2 block sums, U<<16 | V
	x0s, x1s     []int32  // scale: source column pairs per destination column
	txs          []int64  // scale: 16.16 horizontal blend weights
	hrow0, hrow1 []int32  // scale: cached horizontally-resampled rows (16.16 per channel)
}

var yuvScratchPool = sync.Pool{New: func() any { return new(yuvScratch) }}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growPix(s []protocol.Pixel, n int) []protocol.Pixel {
	if cap(s) < n {
		return make([]protocol.Pixel, n)
	}
	return s[:n]
}

// cscsCodes is a w×h CSCS block in the codec's one intermediate form: its
// quantized codes. The encoder quantizes pixels into it and packs it; the
// decoder unpacks a payload into it; and one loop, reconstruct, turns it
// into RGB for both — so a server keeps exactly the pixels a console will
// decode without decoding its own payload (Framebuffer.PaintAndPackCSCS).
type cscsCodes struct {
	w, h   int
	format protocol.CSCSFormat
	// luma holds (w+1)/2 codes a row: a horizontal pixel pair as
	// y0<<yBits | y1, an odd width's lone last pixel as y0<<yBits (the
	// first of a pair).
	luma []uint32
	// us and vs hold one chroma code per 2x2 block, row-major.
	us, vs []uint32
}

// reset sizes the codes for a w×h block of format.
func (c *cscsCodes) reset(w, h int, format protocol.CSCSFormat) {
	cw, ch := (w+1)/2, (h+1)/2
	c.w, c.h, c.format = w, h, format
	c.luma = growU32(c.luma, cw*h)
	c.us = growU32(c.us, cw*ch)
	c.vs = growU32(c.vs, cw*ch)
}

// quantize converts w×h RGB pixels into sc.codes in one fused pass: each
// horizontal pixel pair's YUV becomes one luma code, and the pair's
// chroma is added into a quarter-size scratch plane of block sums (U and
// V share a word: a sum of four 8-bit components cannot carry out of its
// 16 bits); a second pass over the (4× smaller) block grid quantizes the
// chroma.
func (sc *yuvScratch) quantize(pixels []protocol.Pixel, w, h int, format protocol.CSCSFormat) {
	c := &sc.codes
	c.reset(w, h, format)
	yBits, cBits := format.Params()
	uy := uint(yBits)
	// quantize(y, yBits) is y<<up>>down: one of the two shifts is zero.
	up, down := uint(max(0, yBits-8)), uint(max(0, 8-yBits))
	cw, ch := (w+1)/2, (h+1)/2
	sc.uvsum = growU32(sc.uvsum, cw*ch)
	uvsum := sc.uvsum
	clear(uvsum)
	for y := 0; y < h; y++ {
		row := pixels[y*w : (y+1)*w]
		codes := c.luma[y*cw : (y+1)*cw]
		sums := uvsum[(y>>1)*cw : (y>>1+1)*cw]
		for i := range w / 2 {
			y0, u0, v0 := rgbToYUVLanes(row[2*i])
			y1, u1, v1 := rgbToYUVLanes(row[2*i+1])
			codes[i] = y0<<up>>down<<uy | y1<<up>>down
			sums[i] += (u0+u1)<<16 | (v0 + v1)
		}
		if w&1 != 0 {
			y0, u0, v0 := rgbToYUVLanes(row[w-1])
			codes[cw-1] = y0 << up >> down << uy
			sums[cw-1] += u0<<16 | v0
		}
	}
	// Chroma: block averages, rounded like the reference's truncating
	// division by the contributing pixel count. That count is 1, 2 or 4,
	// so the division is a shift: one bit for each of the block's axes
	// that has two pixels (only an odd width's last column or an odd
	// height's last row has one).
	for by := range ch {
		rowShift := uint(min(1, h-1-by*2))
		us, vs := c.us[by*cw:(by+1)*cw], c.vs[by*cw:(by+1)*cw]
		for bx, sum := range uvsum[by*cw : (by+1)*cw] {
			shift := rowShift + uint(min(1, w-1-bx*2))
			us[bx] = quantize(uint8(sum>>16>>shift), cBits)
			vs[bx] = quantize(uint8(sum&0xffff>>shift), cBits)
		}
	}
}

// pack appends the codes' payload to dst: the luma plane a row of pairs
// at a time, then the U and V planes, each plane zero-padded to a byte.
func (c *cscsCodes) pack(dst []byte) []byte {
	yBits, cBits := c.format.Params()
	uy := uint(yBits)
	cw := (c.w + 1) / 2
	if need := c.format.PayloadLen(c.w, c.h); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	bw := bitWriter{buf: dst}
	for y := range c.h {
		row := c.luma[y*cw : (y+1)*cw]
		bw.pack(row[:c.w/2], 2*uy)
		if c.w&1 != 0 {
			bw.write(row[cw-1]>>uy, uy)
		}
	}
	bw.flush()
	bw.pack(c.us, uint(cBits))
	bw.pack(c.vs, uint(cBits))
	bw.flush()
	return bw.buf
}

// unpack reads a payload of the codes' length into them, reporting
// whether it read past the payload's end.
func (c *cscsCodes) unpack(data []byte) (overrun bool) {
	yBits, cBits := c.format.Params()
	uy := uint(yBits)
	cw := (c.w + 1) / 2
	lr := bitReader{buf: data}
	for y := range c.h {
		row := c.luma[y*cw : (y+1)*cw]
		lr.unpack(row[:c.w/2], 2*uy)
		if c.w&1 != 0 {
			lr.unpack(row[cw-1:], uy)
			row[cw-1] <<= uy
		}
	}
	// Chroma starts at the byte-aligned end of the luma plane.
	cr := bitReader{buf: data, pos: (c.w*c.h*yBits + 7) / 8}
	cr.unpack(c.us, uint(cBits))
	cr.unpack(c.vs, uint(cBits))
	return lr.overrun || cr.overrun
}

// cscsRGB[format], for the formats whose Y, U and V codes fit 14 bits
// together (CSCS-8, -6 and -5), maps a pixel's codes straight to its
// color: entry (u<<cBits|v)<<yBits|y holds YUVToRGB of the dequantized
// codes, exactly what the arithmetic combine computes. CSCS-16 and -12
// (28 and 24 bits of codes) keep the arithmetic and have no table. The
// tables are built at init: 16,384 + 4,096 + 256 entries, 82 KB.
var cscsRGB [][]protocol.Pixel

// cscsTableBits bounds the codes a decode table may be indexed by.
const cscsTableBits = 14

func init() {
	for f := protocol.CSCSFormat(0); f.Valid(); f++ {
		var tbl []protocol.Pixel
		if yBits, cBits := f.Params(); yBits+2*cBits <= cscsTableBits {
			ylut, clut := deqLUT[yBits], deqLUT[cBits]
			tbl = make([]protocol.Pixel, 1<<(yBits+2*cBits))
			for i := range tbl {
				y := i & (1<<yBits - 1)
				v := i >> yBits & (1<<cBits - 1)
				u := i >> (yBits + cBits)
				tbl[i] = YUVToRGB(ylut[y], clut[u], clut[v])
			}
		}
		cscsRGB = append(cscsRGB, tbl)
	}
}

// reconstruct turns the codes into w×h RGB pixels in dst (grown only when
// capacity is too small) and returns it — the one path from codes to
// color, run by decoder and encoder alike. Where the format has a cscsRGB
// table, a chroma block is folded into the high bits of its pixels' table
// index and each pixel is one lookup; otherwise the block is dequantized
// and its color terms are computed once per pair. Either way the chroma
// codes are rewritten in place, so a block is reconstructed once.
func (c *cscsCodes) reconstruct(dst []protocol.Pixel) []protocol.Pixel {
	w, h := c.w, c.h
	yBits, cBits := c.format.Params()
	uy, uc := uint(yBits), uint(cBits)
	cw := (w + 1) / 2
	us, vs := c.us, c.vs
	tbl := cscsRGB[c.format]
	if tbl != nil {
		for i, u := range us {
			us[i] = (u<<uc | vs[i]) << uy
		}
	} else {
		clut := deqLUT[cBits]
		for i, u := range us {
			us[i], vs[i] = uint32(clut[u]), uint32(clut[vs[i]])
		}
	}
	dst = growPix(dst, w*h)
	ymask := uint32(1)<<uy - 1
	// The formats without a table carry 8 or 12 bits of luma: above 8 a
	// dequantize is a shift.
	yShift := uy - 8
	for y := 0; y < h; y++ {
		codes := c.luma[y*cw : (y+1)*cw]
		urow := us[(y>>1)*cw : (y>>1+1)*cw]
		vrow := vs[(y>>1)*cw : (y>>1+1)*cw]
		out := dst[y*w : (y+1)*w]
		if tbl != nil {
			for i, uv := range urow {
				c := codes[i]
				out[2*i] = tbl[uv|c>>uy]
				if 2*i+1 < w {
					out[2*i+1] = tbl[uv|c&ymask]
				}
			}
			continue
		}
		for i, u := range urow {
			uu, vv := int32(u)-128, int32(vrow[i])-128
			rAdd := (359 * vv) >> 8
			gSub := (88*uu + 183*vv) >> 8
			bAdd := (454 * uu) >> 8
			c := codes[i]
			yy := int32(c >> uy >> yShift)
			out[2*i] = protocol.RGB(clamp8(yy+rAdd), clamp8(yy-gSub), clamp8(yy+bAdd))
			if 2*i+1 < w {
				yy = int32(c & ymask >> yShift)
				out[2*i+1] = protocol.RGB(clamp8(yy+rAdd), clamp8(yy-gSub), clamp8(yy+bAdd))
			}
		}
	}
	return dst
}

// EncodeCSCS compresses a w×h block of RGB pixels into the packed YUV
// payload of the given format: a full-resolution luma plane followed by
// 2x2-subsampled chroma planes, both bit-packed.
func EncodeCSCS(pixels []protocol.Pixel, w, h int, format protocol.CSCSFormat) ([]byte, error) {
	return AppendCSCS(nil, pixels, w, h, format)
}

// AppendCSCS appends the packed YUV payload to dst and returns it: the
// pixels are quantized into codes, and the codes packed.
func AppendCSCS(dst []byte, pixels []protocol.Pixel, w, h int, format protocol.CSCSFormat) ([]byte, error) {
	if err := checkCSCS(pixels, w, h, format); err != nil {
		return nil, err
	}
	sc := yuvScratchPool.Get().(*yuvScratch)
	sc.quantize(pixels, w, h, format)
	dst = sc.codes.pack(dst)
	yuvScratchPool.Put(sc)
	return dst, nil
}

func checkCSCS(pixels []protocol.Pixel, w, h int, format protocol.CSCSFormat) error {
	if len(pixels) != w*h {
		return fmt.Errorf("fb: EncodeCSCS wants %d pixels, got %d", w*h, len(pixels))
	}
	if !format.Valid() {
		return fmt.Errorf("fb: invalid CSCS format %d", format)
	}
	return nil
}

// DecodeCSCS expands a packed YUV payload back into w×h RGB pixels.
func DecodeCSCS(data []byte, w, h int, format protocol.CSCSFormat) ([]protocol.Pixel, error) {
	return DecodeCSCSInto(nil, data, w, h, format)
}

// DecodeCSCSInto decodes into dst (grown only when capacity is too small)
// and returns it: the payload is unpacked into codes, and the codes
// reconstructed.
func DecodeCSCSInto(dst []protocol.Pixel, data []byte, w, h int, format protocol.CSCSFormat) ([]protocol.Pixel, error) {
	if !format.Valid() {
		return nil, fmt.Errorf("fb: invalid CSCS format %d", format)
	}
	if want := format.PayloadLen(w, h); len(data) != want {
		return nil, fmt.Errorf("fb: DecodeCSCS wants %d bytes, got %d", want, len(data))
	}
	sc := yuvScratchPool.Get().(*yuvScratch)
	sc.codes.reset(w, h, format)
	overrun := sc.codes.unpack(data)
	if !overrun {
		dst = sc.codes.reconstruct(dst)
	}
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
	if err := f.checkDst(m.Dst); err != nil {
		return err
	}
	var err error
	f.cscsDecode, err = DecodeCSCSInto(f.cscsDecode, m.Data, m.Src.W, m.Src.H, m.Format)
	if err != nil {
		return err
	}
	return f.SetScaled(m.Dst, f.cscsDecode, m.Src.W, m.Src.H)
}

// PaintAndPackCSCS paints into the frame buffer what ApplyCSCS would for m
// had its payload been encoded from pixels (m.Src.W×m.Src.H of them, in
// m.Format), appends that payload to data, points m.Data at it (capped, so
// a later append cannot write into it) and returns the grown data. The
// pixels are quantized once and the codes packed and reconstructed, so the
// frame buffer holds the reconstruction of the very codes packed — what a
// console applying m holds — without the payload ever being decoded.
func (f *Framebuffer) PaintAndPackCSCS(data []byte, m *protocol.CSCS, pixels []protocol.Pixel) ([]byte, error) {
	if err := f.checkDst(m.Dst); err != nil {
		return data, err
	}
	if err := checkCSCS(pixels, m.Src.W, m.Src.H, m.Format); err != nil {
		return data, err
	}
	off := len(data)
	sc := yuvScratchPool.Get().(*yuvScratch)
	sc.quantize(pixels, m.Src.W, m.Src.H, m.Format)
	data = sc.codes.pack(data)
	f.cscsDecode = sc.codes.reconstruct(f.cscsDecode)
	yuvScratchPool.Put(sc)
	m.Data = data[off:len(data):len(data)]
	return data, f.SetScaled(m.Dst, f.cscsDecode, m.Src.W, m.Src.H)
}

// SetScaled writes a sw×sh block of pixels at dst: a plain Set when dst is
// that size, else the block resampled bilinearly to dst first
// (ScaleBilinear), in a scratch surface the frame buffer reuses, so a
// stream of scaled frames allocates nothing once it has grown. It is how a
// CSCS command's pixels land, and how a server keeps a video frame it owes
// its console.
func (f *Framebuffer) SetScaled(dst protocol.Rect, pixels []protocol.Pixel, sw, sh int) error {
	if dst.W == sw && dst.H == sh {
		return f.Set(dst, pixels)
	}
	if err := f.checkDst(dst); err != nil {
		return err
	}
	var err error
	f.cscsScale, err = ScaleBilinearInto(f.cscsScale, pixels, sw, sh, dst.W, dst.H)
	if err != nil {
		return err
	}
	return f.Set(dst, f.cscsScale)
}

// checkDst refuses a destination larger than the frame buffer: a scaled
// image is materialised before Set clips it, and the wire lets 16 bits of
// width and height claim 16 GiB of it.
func (f *Framebuffer) checkDst(dst protocol.Rect) error {
	if dst.W > f.W || dst.H > f.H {
		return fmt.Errorf("fb: destination %dx%d exceeds the %dx%d frame buffer", dst.W, dst.H, f.W, f.H)
	}
	return nil
}
