// Package fb implements the frame buffer substrate shared by SLIM servers
// and consoles: a 32-bit pixel surface with the five Table 1 operations
// (SET, BITMAP, FILL, COPY, CSCS), YUV color-space conversion with optional
// bilinear scaling, and frame differencing for the raw-pixel baseline
// protocol. It keeps pixels, not damage: what a console is owed is tracked
// by whoever owes it, as a Region (region.go).
//
// The server keeps the persistent, authoritative frame buffer; the console
// keeps only a soft copy that may be overwritten at any time (§2.2). Both
// sides use this package.
//
// The pixel kernels in this file are the protocol hot path: a SLIM server's
// session density is bounded by per-pixel CPU cost (§4.3, §6), so every
// kernel works a row slice at a time — builtin copy for SET/COPY/ReadRect,
// a doubling copy for FILL, byte-at-a-time 8-pixel unrolled expansion for
// BITMAP (a glyph cell, one byte per row, in place without row slices) —
// and allocates nothing in steady state. The original scalar
// implementations are retained in slow.go as differential-test references.
package fb

import (
	"fmt"
	"image"
	"image/png"
	"io"

	"slim/internal/protocol"
)

// Framebuffer is a W×H surface of 32-bit pixels stored row-major as
// 0x00RRGGBB words — the native 4-byte format the Sun Ray's graphics
// controller wants, and the reason SET pays a packing-expansion cost per
// pixel (Table 5).
type Framebuffer struct {
	W, H int
	Pix  []protocol.Pixel

	// cscsDecode and cscsScale are the per-frame-buffer scratch surfaces
	// the CSCS apply path decodes and scales into; they grow to the largest
	// command seen and are reused forever after, so a console playing video
	// allocates nothing per frame (§7's sustained-stream case).
	cscsDecode []protocol.Pixel
	cscsScale  []protocol.Pixel
}

// New returns a zeroed (black) frame buffer. It panics on non-positive
// dimensions; screen geometry comes from validated Hello messages.
func New(w, h int) *Framebuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("fb: invalid size %dx%d", w, h))
	}
	return &Framebuffer{W: w, H: h, Pix: make([]protocol.Pixel, w*h)}
}

// Bounds returns the full-screen rectangle.
func (f *Framebuffer) Bounds() protocol.Rect {
	return protocol.Rect{W: f.W, H: f.H}
}

// At returns the pixel at (x, y). Out-of-range coordinates return 0.
func (f *Framebuffer) At(x, y int) protocol.Pixel {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return 0
	}
	return f.Pix[y*f.W+x]
}

// SetAt writes the pixel at (x, y), ignoring out-of-range coordinates.
func (f *Framebuffer) SetAt(x, y int, p protocol.Pixel) {
	if x < 0 || y < 0 || x >= f.W || y >= f.H {
		return
	}
	f.Pix[y*f.W+x] = p
}

// clip returns r clipped to the frame buffer.
func (f *Framebuffer) clip(r protocol.Rect) protocol.Rect {
	return r.Intersect(f.Bounds())
}

// row returns the pixels of row y clipped to [x0, x0+w).
func (f *Framebuffer) row(y, x0, w int) []protocol.Pixel {
	off := y*f.W + x0
	return f.Pix[off : off+w : off+w]
}

// Fill paints r with a single color (the FILL command). The first row is
// filled with a doubling copy; every following row is one copy of it.
func (f *Framebuffer) Fill(r protocol.Rect, c protocol.Pixel) {
	r = f.clip(r)
	if r.Empty() {
		return
	}
	row0 := f.row(r.Y, r.X, r.W)
	row0[0] = c
	for n := 1; n < len(row0); n *= 2 {
		copy(row0[n:], row0[:n])
	}
	for y := r.Y + 1; y < r.Y+r.H; y++ {
		copy(f.row(y, r.X, r.W), row0)
	}
}

// Set writes literal pixels into r (the SET command). pixels must hold
// r.W*r.H values in row-major order; rows that fall outside the frame
// buffer are clipped. One builtin copy per clipped row.
func (f *Framebuffer) Set(r protocol.Rect, pixels []protocol.Pixel) error {
	if len(pixels) != r.Pixels() {
		return fmt.Errorf("fb: SET %v wants %d pixels, got %d", r, r.Pixels(), len(pixels))
	}
	clipped := f.clip(r)
	if clipped.Empty() {
		return nil
	}
	for y := clipped.Y; y < clipped.Y+clipped.H; y++ {
		src := (y-r.Y)*r.W + (clipped.X - r.X)
		copy(f.row(y, clipped.X, clipped.W), pixels[src:src+clipped.W])
	}
	return nil
}

// Bitmap expands a 1bpp bitmap into fg/bg colors over r (the BITMAP
// command). bits holds r.H padded rows of ceil(r.W/8) bytes, MSB first.
// A clipped width of 8 starting on a byte boundary — the terminal's glyph
// cell, one byte per row — expands in place, branch-free, with no per-row
// call (expandGlyph). Every other shape goes a row at a time through
// expandBitmapRow, whose interior bytes expand eight pixels at a time
// with uniform-byte fast paths for 0x00/0xff runs (solid glyph background
// and strikes).
func (f *Framebuffer) Bitmap(r protocol.Rect, fg, bg protocol.Pixel, bits []byte) error {
	rowBytes := protocol.BitmapRowBytes(r.W)
	if len(bits) != rowBytes*r.H {
		return fmt.Errorf("fb: BITMAP %v wants %d bytes, got %d", r, rowBytes*r.H, len(bits))
	}
	clipped := f.clip(r)
	if clipped.Empty() {
		return nil
	}
	bx0 := clipped.X - r.X
	if clipped.W == 8 && bx0&7 == 0 {
		f.expandGlyph(clipped, bits[(clipped.Y-r.Y)*rowBytes+bx0>>3:], rowBytes, fg, bg)
		return nil
	}
	for y := clipped.Y; y < clipped.Y+clipped.H; y++ {
		srcRow := bits[(y-r.Y)*rowBytes : (y-r.Y+1)*rowBytes]
		expandBitmapRow(f.row(y, clipped.X, clipped.W), srcRow, bx0, fg, bg)
	}
	return nil
}

// expandGlyph writes the 8-pixel-wide clipped rectangle c from one bitmap
// byte per row: bits[i*stride] holds row c.Y+i. Each pixel is bg with the
// fg^bg difference masked in by its bit (-(bit) is all ones or zero), so
// no pixel branches on its bit.
func (f *Framebuffer) expandGlyph(c protocol.Rect, bits []byte, stride int, fg, bg protocol.Pixel) {
	x := fg ^ bg
	off := c.Y*f.W + c.X
	for i := 0; i < c.H; i++ {
		b := protocol.Pixel(bits[i*stride])
		d := f.Pix[off : off+8 : off+8]
		d[0] = bg ^ x&-(b>>7)
		d[1] = bg ^ x&-(b>>6&1)
		d[2] = bg ^ x&-(b>>5&1)
		d[3] = bg ^ x&-(b>>4&1)
		d[4] = bg ^ x&-(b>>3&1)
		d[5] = bg ^ x&-(b>>2&1)
		d[6] = bg ^ x&-(b>>1&1)
		d[7] = bg ^ x&-(b&1)
		off += f.W
	}
}

// expandBitmapRow writes dst[i] = fg/bg according to bitmap bit bx0+i.
func expandBitmapRow(dst []protocol.Pixel, bits []byte, bx0 int, fg, bg protocol.Pixel) {
	i, n := 0, len(dst)
	// Leading bits up to the first byte boundary.
	for ; i < n && (bx0+i)&7 != 0; i++ {
		if bits[(bx0+i)>>3]&(0x80>>uint((bx0+i)&7)) != 0 {
			dst[i] = fg
		} else {
			dst[i] = bg
		}
	}
	// Whole bytes: eight pixels per iteration.
	for ; i+8 <= n; i += 8 {
		b := bits[(bx0+i)>>3]
		d := dst[i : i+8 : i+8]
		switch b {
		case 0x00:
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = bg, bg, bg, bg, bg, bg, bg, bg
		case 0xff:
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = fg, fg, fg, fg, fg, fg, fg, fg
		default:
			d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = bg, bg, bg, bg, bg, bg, bg, bg
			if b&0x80 != 0 {
				d[0] = fg
			}
			if b&0x40 != 0 {
				d[1] = fg
			}
			if b&0x20 != 0 {
				d[2] = fg
			}
			if b&0x10 != 0 {
				d[3] = fg
			}
			if b&0x08 != 0 {
				d[4] = fg
			}
			if b&0x04 != 0 {
				d[5] = fg
			}
			if b&0x02 != 0 {
				d[6] = fg
			}
			if b&0x01 != 0 {
				d[7] = fg
			}
		}
	}
	// Trailing partial byte.
	for ; i < n; i++ {
		if bits[(bx0+i)>>3]&(0x80>>uint((bx0+i)&7)) != 0 {
			dst[i] = fg
		} else {
			dst[i] = bg
		}
	}
}

// Copy moves the src rectangle so its top-left lands at (dstX, dstY) (the
// COPY command). Overlapping regions copy correctly, which is what makes
// COPY usable for scrolling.
func (f *Framebuffer) Copy(src protocol.Rect, dstX, dstY int) {
	src = f.clip(src)
	if src.Empty() {
		return
	}
	dst := f.clip(protocol.Rect{X: dstX, Y: dstY, W: src.W, H: src.H})
	if dst.Empty() {
		return
	}
	// Shrink src to match the clipped destination.
	src = protocol.Rect{
		X: src.X + (dst.X - dstX),
		Y: src.Y + (dst.Y - dstY),
		W: dst.W,
		H: dst.H,
	}
	// Choose iteration order so overlapping copies are safe.
	if dst.Y > src.Y || (dst.Y == src.Y && dst.X > src.X) {
		for y := src.H - 1; y >= 0; y-- {
			f.copyRow(src, dst, y)
		}
	} else {
		for y := 0; y < src.H; y++ {
			f.copyRow(src, dst, y)
		}
	}
}

func (f *Framebuffer) copyRow(src, dst protocol.Rect, y int) {
	s := f.Pix[(src.Y+y)*f.W+src.X : (src.Y+y)*f.W+src.X+src.W]
	d := f.Pix[(dst.Y+y)*f.W+dst.X : (dst.Y+y)*f.W+dst.X+dst.W]
	copy(d, s) // builtin copy handles overlap within a row
}

// Snapshot returns a deep copy of the frame buffer contents.
func (f *Framebuffer) Snapshot() *Framebuffer {
	c := New(f.W, f.H)
	copy(c.Pix, f.Pix)
	return c
}

// Equal reports whether two frame buffers have identical geometry and
// pixels.
func (f *Framebuffer) Equal(o *Framebuffer) bool {
	if f.W != o.W || f.H != o.H {
		return false
	}
	a, b := f.Pix, o.Pix
	if len(b) < len(a) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DiffPixels counts pixels that differ between two equally sized frame
// buffers. The raw-pixel baseline of Figure 8 transmits exactly these.
func (f *Framebuffer) DiffPixels(o *Framebuffer) (int, error) {
	if f.W != o.W || f.H != o.H {
		return 0, fmt.Errorf("fb: diff of mismatched sizes %dx%d vs %dx%d", f.W, f.H, o.W, o.H)
	}
	n := 0
	a := f.Pix
	b := o.Pix[:len(a)]
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n, nil
}

// DiffRect returns the bounding rectangle of all differing pixels, and
// false if the frame buffers are identical. Each row is scanned forward to
// its first mismatch and backward to its last, so identical rows cost one
// pass and differing rows never scan their interior twice.
func (f *Framebuffer) DiffRect(o *Framebuffer) (protocol.Rect, bool) {
	if f.W != o.W || f.H != o.H {
		return f.Bounds(), true
	}
	minX, minY := f.W, f.H
	maxX, maxY := -1, -1
	for y := 0; y < f.H; y++ {
		a := f.row(y, 0, f.W)
		b := o.row(y, 0, f.W)
		first := -1
		for x := range a {
			if a[x] != b[x] {
				first = x
				break
			}
		}
		if first < 0 {
			continue
		}
		last := first
		for x := f.W - 1; x > first; x-- {
			if a[x] != b[x] {
				last = x
				break
			}
		}
		if first < minX {
			minX = first
		}
		if last > maxX {
			maxX = last
		}
		if y < minY {
			minY = y
		}
		maxY = y
	}
	if maxX < 0 {
		return protocol.Rect{}, false
	}
	return protocol.Rect{X: minX, Y: minY, W: maxX - minX + 1, H: maxY - minY + 1}, true
}

// ReadRect copies the pixels of r (clipped) out of the frame buffer in
// row-major order.
func (f *Framebuffer) ReadRect(r protocol.Rect) []protocol.Pixel {
	return f.ReadRectInto(nil, r)
}

// ReadRectInto copies the pixels of r (clipped) into dst in row-major
// order, growing dst only when its capacity is insufficient. Callers that
// repaint repeatedly (the recovery and attach paths) pass the same slab
// every time and allocate nothing in steady state.
func (f *Framebuffer) ReadRectInto(dst []protocol.Pixel, r protocol.Rect) []protocol.Pixel {
	r = f.clip(r)
	n := r.Pixels()
	if cap(dst) < n {
		dst = make([]protocol.Pixel, n)
	} else {
		dst = dst[:n]
	}
	for y := 0; y < r.H; y++ {
		copy(dst[y*r.W:(y+1)*r.W], f.row(r.Y+y, r.X, r.W))
	}
	return dst
}

// Uniform reports whether every pixel of r (clipped) has one color, and
// which. It reads the rows in place and stops at the first pixel that
// differs, so the gen-2 encoder can test every tile for a FILL before it
// hashes anything. An empty (fully clipped) rectangle is not uniform.
func (f *Framebuffer) Uniform(r protocol.Rect) (protocol.Pixel, bool) {
	r = f.clip(r)
	if r.Empty() {
		return 0, false
	}
	c := f.Pix[r.Y*f.W+r.X]
	for y := r.Y; y < r.Y+r.H; y++ {
		for _, p := range f.row(y, r.X, r.W) {
			if p != c {
				return 0, false
			}
		}
	}
	return c, true
}

// Apply executes one display command against the frame buffer. This is the
// entire console rendering path: a SLIM console is "not much more
// intelligent than a frame buffer" (§9).
func (f *Framebuffer) Apply(msg protocol.Message) error {
	switch m := msg.(type) {
	case *protocol.Set:
		return f.Set(m.Rect, m.Pixels)
	case *protocol.Bitmap:
		return f.Bitmap(m.Rect, m.Fg, m.Bg, m.Bits)
	case *protocol.Fill:
		f.Fill(m.Rect, m.Color)
		return nil
	case *protocol.Copy:
		f.Copy(m.Rect, m.DstX, m.DstY)
		return nil
	case *protocol.CSCS:
		return f.ApplyCSCS(m)
	default:
		return fmt.Errorf("fb: %v is not a display command", msg.Type())
	}
}

// Image converts the frame buffer to an image.RGBA for inspection. The
// RGBA backing slice is written directly, row-major — a 1280×1024
// screenshot is ~1.3M pixels, and the per-pixel SetRGBA path costs a
// bounds-checked offset computation for every one of them.
func (f *Framebuffer) Image() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		src := f.row(y, 0, f.W)
		dst := img.Pix[y*img.Stride : y*img.Stride+4*f.W : y*img.Stride+4*f.W]
		for x, p := range src {
			dst[4*x+0] = p.R()
			dst[4*x+1] = p.G()
			dst[4*x+2] = p.B()
			dst[4*x+3] = 0xff
		}
	}
	return img
}

// WritePNG encodes the frame buffer as PNG — the slimview screenshot path.
func (f *Framebuffer) WritePNG(w io.Writer) error {
	return png.Encode(w, f.Image())
}
