package fb

import (
	"fmt"
	"image"
	"image/color"

	"slim/internal/protocol"
)

// This file retains the original scalar, per-pixel kernels as unexported
// reference implementations. They are the ground truth the optimized
// kernels in fb.go and yuv.go are differentially tested against
// (TestKernelsMatchReference, FuzzFBKernels) and the baseline the
// BenchmarkHotpath_* benches measure speedups from. They are deliberately
// naive: one pixel, one bounds check, one conversion at a time.

// slowFill paints r with a single color, one pixel at a time.
func (f *Framebuffer) slowFill(r protocol.Rect, c protocol.Pixel) {
	r = f.clip(r)
	if r.Empty() {
		return
	}
	for y := r.Y; y < r.Y+r.H; y++ {
		row := f.Pix[y*f.W+r.X : y*f.W+r.X+r.W]
		for i := range row {
			row[i] = c
		}
	}
}

// slowSet writes literal pixels into r, one pixel at a time.
func (f *Framebuffer) slowSet(r protocol.Rect, pixels []protocol.Pixel) error {
	if len(pixels) != r.Pixels() {
		return fmt.Errorf("fb: SET %v wants %d pixels, got %d", r, r.Pixels(), len(pixels))
	}
	clipped := f.clip(r)
	if clipped.Empty() {
		return nil
	}
	for y := clipped.Y; y < clipped.Y+clipped.H; y++ {
		srcRow := (y - r.Y) * r.W
		dstRow := y * f.W
		for x := clipped.X; x < clipped.X+clipped.W; x++ {
			f.Pix[dstRow+x] = pixels[srcRow+(x-r.X)]
		}
	}
	return nil
}

// slowBitmap expands a 1bpp bitmap into fg/bg colors, one bit at a time.
func (f *Framebuffer) slowBitmap(r protocol.Rect, fg, bg protocol.Pixel, bits []byte) error {
	rowBytes := protocol.BitmapRowBytes(r.W)
	if len(bits) != rowBytes*r.H {
		return fmt.Errorf("fb: BITMAP %v wants %d bytes, got %d", r, rowBytes*r.H, len(bits))
	}
	clipped := f.clip(r)
	if clipped.Empty() {
		return nil
	}
	for y := clipped.Y; y < clipped.Y+clipped.H; y++ {
		srcRow := (y - r.Y) * rowBytes
		dstRow := y * f.W
		for x := clipped.X; x < clipped.X+clipped.W; x++ {
			bx := x - r.X
			if bits[srcRow+bx/8]&(0x80>>uint(bx%8)) != 0 {
				f.Pix[dstRow+x] = fg
			} else {
				f.Pix[dstRow+x] = bg
			}
		}
	}
	return nil
}

// slowCopy moves the src rectangle one pixel at a time, iterating in an
// overlap-safe order.
func (f *Framebuffer) slowCopy(src protocol.Rect, dstX, dstY int) {
	src = f.clip(src)
	if src.Empty() {
		return
	}
	dst := f.clip(protocol.Rect{X: dstX, Y: dstY, W: src.W, H: src.H})
	if dst.Empty() {
		return
	}
	src = protocol.Rect{
		X: src.X + (dst.X - dstX),
		Y: src.Y + (dst.Y - dstY),
		W: dst.W,
		H: dst.H,
	}
	copyPixel := func(x, y int) {
		f.Pix[(dst.Y+y)*f.W+dst.X+x] = f.Pix[(src.Y+y)*f.W+src.X+x]
	}
	if dst.Y > src.Y || (dst.Y == src.Y && dst.X > src.X) {
		for y := src.H - 1; y >= 0; y-- {
			for x := src.W - 1; x >= 0; x-- {
				copyPixel(x, y)
			}
		}
	} else {
		for y := 0; y < src.H; y++ {
			for x := 0; x < src.W; x++ {
				copyPixel(x, y)
			}
		}
	}
}

// slowReadRect copies the pixels of r out of the frame buffer with one
// append per pixel.
func (f *Framebuffer) slowReadRect(r protocol.Rect) []protocol.Pixel {
	r = f.clip(r)
	out := make([]protocol.Pixel, 0, r.Pixels())
	for y := r.Y; y < r.Y+r.H; y++ {
		row := y * f.W
		for x := r.X; x < r.X+r.W; x++ {
			out = append(out, f.Pix[row+x])
		}
	}
	return out
}

// slowEqual compares two frame buffers pixel by pixel.
func (f *Framebuffer) slowEqual(o *Framebuffer) bool {
	if f.W != o.W || f.H != o.H {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// slowDiffPixels counts differing pixels with a flat scalar scan.
func (f *Framebuffer) slowDiffPixels(o *Framebuffer) (int, error) {
	if f.W != o.W || f.H != o.H {
		return 0, fmt.Errorf("fb: diff of mismatched sizes %dx%d vs %dx%d", f.W, f.H, o.W, o.H)
	}
	n := 0
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			n++
		}
	}
	return n, nil
}

// slowDiffRect computes the differing bounding box by testing every pixel.
func (f *Framebuffer) slowDiffRect(o *Framebuffer) (protocol.Rect, bool) {
	if f.W != o.W || f.H != o.H {
		return f.Bounds(), true
	}
	minX, minY := f.W, f.H
	maxX, maxY := -1, -1
	for y := 0; y < f.H; y++ {
		row := y * f.W
		for x := 0; x < f.W; x++ {
			if f.Pix[row+x] != o.Pix[row+x] {
				if x < minX {
					minX = x
				}
				if x > maxX {
					maxX = x
				}
				if y < minY {
					minY = y
				}
				if y > maxY {
					maxY = y
				}
			}
		}
	}
	if maxX < 0 {
		return protocol.Rect{}, false
	}
	return protocol.Rect{X: minX, Y: minY, W: maxX - minX + 1, H: maxY - minY + 1}, true
}

// slowImage converts the frame buffer through the image.RGBA SetRGBA
// interface, one bounds-checked call per pixel.
func (f *Framebuffer) slowImage() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			p := f.Pix[y*f.W+x]
			img.SetRGBA(x, y, color.RGBA{R: p.R(), G: p.G(), B: p.B(), A: 0xff})
		}
	}
	return img
}

// slowEncodeCSCS is the plane-at-a-time encoder: three full W×H component
// planes are materialized, then quantized and bit-packed.
func slowEncodeCSCS(pixels []protocol.Pixel, w, h int, format protocol.CSCSFormat) ([]byte, error) {
	if len(pixels) != w*h {
		return nil, fmt.Errorf("fb: EncodeCSCS wants %d pixels, got %d", w*h, len(pixels))
	}
	if !format.Valid() {
		return nil, fmt.Errorf("fb: invalid CSCS format %d", format)
	}
	yBits, cBits := format.Params()
	ys := make([]uint8, w*h)
	us := make([]uint8, w*h)
	vs := make([]uint8, w*h)
	for i, p := range pixels {
		ys[i], us[i], vs[i] = RGBToYUV(p)
	}
	bw := &bitWriter{buf: make([]byte, 0, format.PayloadLen(w, h))}
	for _, y := range ys {
		bw.write(quantize(y, yBits), uint(yBits))
	}
	bw.flush()
	// Chroma, subsampled over 2x2 blocks (block average).
	cw, ch := (w+1)/2, (h+1)/2
	writePlane := func(plane []uint8) {
		for by := 0; by < ch; by++ {
			for bx := 0; bx < cw; bx++ {
				sum, n := 0, 0
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						x, y := bx*2+dx, by*2+dy
						if x < w && y < h {
							sum += int(plane[y*w+x])
							n++
						}
					}
				}
				bw.write(quantize(uint8(sum/n), cBits), uint(cBits))
			}
		}
	}
	writePlane(us)
	writePlane(vs)
	bw.flush()
	return bw.buf, nil
}

// slowDecodeCSCS is the plane-at-a-time decoder: full luma and chroma
// planes are materialized before the RGB combine pass.
func slowDecodeCSCS(data []byte, w, h int, format protocol.CSCSFormat) ([]protocol.Pixel, error) {
	if !format.Valid() {
		return nil, fmt.Errorf("fb: invalid CSCS format %d", format)
	}
	if want := format.PayloadLen(w, h); len(data) != want {
		return nil, fmt.Errorf("fb: DecodeCSCS wants %d bytes, got %d", want, len(data))
	}
	yBits, cBits := format.Params()
	br := &bitReader{buf: data}
	ys := make([]uint8, w*h)
	for i := range ys {
		ys[i] = dequantize(br.read(uint(yBits)), yBits)
	}
	// Luma plane is byte aligned on the wire.
	br.align()
	br.pos = (w*h*yBits + 7) / 8
	cw, ch := (w+1)/2, (h+1)/2
	readPlane := func() []uint8 {
		plane := make([]uint8, cw*ch)
		for i := range plane {
			plane[i] = dequantize(br.read(uint(cBits)), cBits)
		}
		return plane
	}
	us := readPlane()
	vs := readPlane()
	out := make([]protocol.Pixel, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			c := (y/2)*cw + x/2
			out[y*w+x] = YUVToRGB(ys[y*w+x], us[c], vs[c])
		}
	}
	return out, nil
}

// slowScaleBilinear is the float64-per-channel resampler.
func slowScaleBilinear(src []protocol.Pixel, sw, sh, dw, dh int) ([]protocol.Pixel, error) {
	if len(src) != sw*sh {
		return nil, fmt.Errorf("fb: ScaleBilinear wants %d pixels, got %d", sw*sh, len(src))
	}
	if dw <= 0 || dh <= 0 {
		return nil, fmt.Errorf("fb: invalid destination %dx%d", dw, dh)
	}
	if dw == sw && dh == sh {
		return append([]protocol.Pixel(nil), src...), nil
	}
	dst := make([]protocol.Pixel, dw*dh)
	for dy := 0; dy < dh; dy++ {
		// Map destination pixel centers into source space.
		fy := (float64(dy)+0.5)*float64(sh)/float64(dh) - 0.5
		y0 := int(fy)
		ty := fy - float64(y0)
		if fy < 0 {
			y0, ty = 0, 0
		}
		y1 := y0 + 1
		if y1 >= sh {
			y1 = sh - 1
		}
		for dx := 0; dx < dw; dx++ {
			fx := (float64(dx)+0.5)*float64(sw)/float64(dw) - 0.5
			x0 := int(fx)
			tx := fx - float64(x0)
			if fx < 0 {
				x0, tx = 0, 0
			}
			x1 := x0 + 1
			if x1 >= sw {
				x1 = sw - 1
			}
			p00 := src[y0*sw+x0]
			p01 := src[y0*sw+x1]
			p10 := src[y1*sw+x0]
			p11 := src[y1*sw+x1]
			lerp := func(a, b uint8, t float64) float64 {
				return float64(a) + (float64(b)-float64(a))*t
			}
			blend := func(c00, c01, c10, c11 uint8) uint8 {
				top := lerp(c00, c01, tx)
				bot := lerp(c10, c11, tx)
				v := top + (bot-top)*ty
				return clamp8(int32(v + 0.5))
			}
			dst[dy*dw+dx] = protocol.RGB(
				blend(p00.R(), p01.R(), p10.R(), p11.R()),
				blend(p00.G(), p01.G(), p10.G(), p11.G()),
				blend(p00.B(), p01.B(), p10.B(), p11.B()),
			)
		}
	}
	return dst, nil
}
