package fb

import (
	"bytes"
	"math/rand"
	"testing"

	"slim/internal/protocol"
)

// FuzzDecodeCSCS hammers the bit-packed YUV payload parser and pins the
// codec to its references: any payload of the correct length must decode
// without panicking, to exactly the pixels slowDecodeCSCS gives (a random
// payload reaches every Y, U and V code, so every entry of a format's
// cscsRGB table is in reach), and those pixels must re-encode to exactly
// the bytes slowEncodeCSCS gives. The server's side is pinned with them:
// PaintAndPackCSCS of those pixels packs those bytes and paints what
// slowDecodeCSCS makes of them.
func FuzzDecodeCSCS(f *testing.F) {
	seedPix := make([]protocol.Pixel, 8*6)
	for i := range seedPix {
		seedPix[i] = protocol.RGB(byte(i*37), byte(i*11), byte(i*5))
	}
	formats := []protocol.CSCSFormat{protocol.CSCS16, protocol.CSCS12, protocol.CSCS8, protocol.CSCS6, protocol.CSCS5}
	for _, format := range formats {
		data, err := EncodeCSCS(seedPix, 8, 6, format)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int(format), 8, 6, data)
		// Truncated chroma plane: full luma, chopped tail. Must be
		// rejected by the length check, never decoded as garbage color.
		yBits, _ := format.Params()
		f.Add(int(format), 8, 6, data[:(8*6*yBits+7)/8+1])
	}
	// Random payloads at odd and even strip shapes.
	rng := rand.New(rand.NewSource(3))
	for _, format := range formats {
		for _, sz := range [][2]int{{7, 5}, {64, 2}, {33, 64}} {
			random := make([]byte, format.PayloadLen(sz[0], sz[1]))
			rng.Read(random)
			f.Add(int(format), sz[0], sz[1], random)
		}
	}
	f.Fuzz(func(t *testing.T, formatInt, w, h int, data []byte) {
		format := protocol.CSCSFormat(formatInt)
		if !format.Valid() || w <= 0 || h <= 0 || w > 64 || h > 64 {
			return
		}
		if len(data) != format.PayloadLen(w, h) {
			if _, err := DecodeCSCS(data, w, h, format); err == nil {
				t.Fatal("wrong-length payload accepted")
			}
			return
		}
		pixels, err := DecodeCSCS(data, w, h, format)
		if err != nil {
			t.Fatalf("correct-length payload rejected: %v", err)
		}
		if len(pixels) != w*h {
			t.Fatalf("decoded %d pixels for %dx%d", len(pixels), w, h)
		}
		want, err := slowDecodeCSCS(data, w, h, format)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if pixels[i] != want[i] {
				t.Fatalf("%v %dx%d: pixel %d = %06x, reference %06x", format, w, h, i, pixels[i], want[i])
			}
		}
		re, err := EncodeCSCS(pixels, w, h, format)
		if err != nil {
			t.Fatal(err)
		}
		wantRe, err := slowEncodeCSCS(pixels, w, h, format)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, wantRe) {
			t.Fatalf("%v %dx%d: re-encoded bytes differ from the reference's", format, w, h)
		}
		wantPainted, err := slowDecodeCSCS(wantRe, w, h, format)
		if err != nil {
			t.Fatal(err)
		}
		m := &protocol.CSCS{Src: protocol.Rect{W: w, H: h}, Dst: protocol.Rect{W: w, H: h}, Format: format}
		packed := New(w, h)
		if _, err := packed.PaintAndPackCSCS(nil, m, pixels); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.Data, wantRe) {
			t.Fatalf("%v %dx%d: PaintAndPackCSCS packed bytes that differ from the reference's", format, w, h)
		}
		for i, p := range wantPainted {
			if packed.Pix[i] != p {
				t.Fatalf("%v %dx%d: pixel %d painted %06x, decode gives %06x", format, w, h, i, packed.Pix[i], p)
			}
		}
	})
}
