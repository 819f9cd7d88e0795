package server

// Font renders 8x16 glyph bitmaps for the terminal application. Glyph
// shapes are generated procedurally (strokes derived from the character
// code) rather than copied from a real typeface: every glyph is a stable,
// distinct, two-color bitmap, which is all the SLIM encoder and the
// experiments care about — BITMAP commands carry one bit per pixel
// regardless of what the glyph looks like.
type Font struct {
	glyphs [256][TermGlyphH]byte
}

// defaultFont holds every glyph, drawn once at package init: a keystroke
// reads its glyph with no lock and no lookup.
var defaultFont = newFont()

func newFont() *Font {
	f := new(Font)
	for ch := range f.glyphs {
		f.glyphs[ch] = renderGlyph(byte(ch))
	}
	return f
}

// DefaultFont returns the process-wide shared font.
func DefaultFont() *Font { return defaultFont }

// Glyph returns the 8x16 bitmap for ch: TermGlyphH rows of one byte each
// (TermGlyphW = 8 bits). The returned slice is shared; callers must not
// modify it.
func (f *Font) Glyph(ch byte) []byte {
	return f.glyphs[ch][:]
}

// renderGlyph draws a deterministic stroke pattern for a character: a
// frame of vertical and horizontal strokes selected by the character's
// bits, inside a 1-pixel margin, with a baseline at row 13. Space is blank.
func renderGlyph(ch byte) (g [TermGlyphH]byte) {
	if ch == ' ' || ch == 0 {
		return g
	}
	// Stroke selectors from the character code.
	left := ch&0x01 != 0
	right := ch&0x02 != 0
	top := ch&0x04 != 0
	mid := ch&0x08 != 0
	bottom := ch&0x10 != 0
	diag := ch&0x20 != 0
	dot := ch&0x40 != 0

	setPx := func(x, y int) {
		if x >= 0 && x < TermGlyphW && y >= 2 && y < TermGlyphH-2 {
			g[y] |= 0x80 >> uint(x)
		}
	}
	for y := 2; y < TermGlyphH-2; y++ {
		if left {
			setPx(1, y)
		}
		if right {
			setPx(6, y)
		}
	}
	for x := 1; x <= 6; x++ {
		if top {
			setPx(x, 2)
		}
		if mid {
			setPx(x, 7)
		}
		if bottom {
			setPx(x, TermGlyphH-3)
		}
	}
	if diag {
		for i := 0; i < 10; i++ {
			setPx(1+i*6/10, 2+i)
		}
	}
	if dot {
		setPx(3, 5)
		setPx(4, 5)
		setPx(3, 6)
		setPx(4, 6)
	}
	// Guarantee every printable glyph has at least one lit pixel so text is
	// never silently invisible.
	lit := false
	for _, row := range g {
		if row != 0 {
			lit = true
			break
		}
	}
	if !lit {
		setPx(3, 7)
		setPx(4, 8)
	}
	return g
}
