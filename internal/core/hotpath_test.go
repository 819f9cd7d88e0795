package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// liveHeap reports the bytes still reachable after two collections — the
// second empties sync.Pool's victim cache, so pooled scratch nobody holds
// is gone from the figure.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestEncoderRetainsNoWire: the encoder remembers the geometry of what it
// sent, not the bytes. After a 1280×1024 gen-2 attach of noise and 80
// CSCS6 320×240 video frames — traffic whose last 4,096 datagrams, kept
// whole, would hold about 13 MB of messages, payloads and wires — what the
// encoder keeps alive beyond its frame buffer, its scratch slabs (the wire
// slab holding the last frame's wires among them) and its tile-cache slots
// (the 512 KB sent log, the cache index, the churn map, the accounting) is
// under 768 KB, and the attach's megabytes of wire slab are gone, dropped
// by the next call. The gen-2 repaint reads the frame buffer in place, so
// it leaves no full-screen staging copy behind, and so does a gen-1
// repaint of a blank screen, which is one FILL.
func TestEncoderRetainsNoWire(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's shadow allocations are in the heap figure")
	}
	blank := NewEncoder(1280, 1024)
	if dgs := blank.RepaintAll(); len(dgs) != 1 || cap(blank.repaintPix) != 0 {
		t.Errorf("a blank gen-1 RepaintAll sent %d commands and left a %d-pixel staging slab; want one FILL and none",
			len(dgs), cap(blank.repaintPix))
	}
	rng := rand.New(rand.NewSource(9))
	const vw, vh = 320, 240
	frame := make([]protocol.Pixel, vw*vh)
	for i := range frame {
		frame[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	before := liveHeap()

	e := NewEncoder(1280, 1024)
	for i := range e.FB.Pix {
		e.FB.Pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	e.EnableCodec2(0)
	e.RepaintAll()
	if cap(e.repaintPix) != 0 {
		t.Errorf("gen-2 RepaintAll left a %d-pixel staging slab", cap(e.repaintPix))
	}
	op := VideoOp{Src: protocol.Rect{W: vw, H: vh}, Dst: protocol.Rect{X: 64, Y: 64, W: vw, H: vh}, Format: protocol.CSCS6, Pixels: frame}
	for i := 0; i < 80; i++ {
		frame[i] ^= 0xffffff
		if _, err := e.Encode(op); err != nil {
			t.Fatal(err)
		}
	}

	if cap(e.wire) > maxWireSlab {
		t.Errorf("the encoder kept a %d KB wire slab past the attach", cap(e.wire)>>10)
	}
	grown := liveHeap() - before
	const px = int64(unsafe.Sizeof(protocol.Pixel(0)))
	accounted := px*int64(cap(e.FB.Pix)+cap(e.setSlab)+cap(e.codec2.pix)) +
		int64(cap(e.bitSlab)+cap(e.bicolorBits)+cap(e.cscsSlab)+cap(e.wire)) +
		int64(cap(e.codec2.cache.ent))*int64(unsafe.Sizeof(tcEntry{}))
	rest := grown - accounted
	t.Logf("live heap grew %d KB: %d KB frame buffer, slabs and tile cache, %d KB besides", grown>>10, accounted>>10, rest>>10)
	if rest > 768<<10 {
		t.Errorf("encoder keeps %d KB alive beyond its %d KB of frame buffer, slabs and tile cache; want under 768 KB",
			rest>>10, accounted>>10)
	}
	runtime.KeepAlive(e)
	runtime.KeepAlive(frame) // allocated before the first reading
}

// TestEmitZeroAllocSteadyState asserts the wire-path budget: once the
// wire slab has grown, emitting a small command with wire generation on as
// Encode does — the slab emptied, marshal onto it, one sent-log record —
// allocates nothing but the message itself (which this white-box test
// reuses).
func TestEmitZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEncoder(64, 64)
	msg := &protocol.Fill{Rect: protocol.Rect{W: 16, H: 16}, Color: 42}
	emit := func() {
		e.begin()
		e.emit(msg)
	}
	// Wrap the sent log once for good measure.
	for i := 0; i < 5000; i++ {
		emit()
	}
	if allocs := testing.AllocsPerRun(2000, emit); allocs != 0 {
		t.Errorf("warm emit path allocates %.3f objects/op, want 0", allocs)
	}
}

// TestVideoFrameAllocs pins the video path's allocation budget: once the
// slabs have grown, encoding a 352x240 CSCS-12 frame of 120 strips
// allocates only the datagram list Encode returns — the strips' messages
// and payloads are the encoder's own slabs, reused frame after frame —
// whatever the strip count.
func TestVideoFrameAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	const vw, vh = 352, 240
	e := NewEncoder(352, 288)
	pix := make([]protocol.Pixel, vw*vh)
	for i := range pix {
		pix[i] = protocol.RGB(uint8(i), uint8(i/vw), 128)
	}
	frame := VideoOp{Src: protocol.Rect{W: vw, H: vh}, Dst: protocol.Rect{W: vw, H: vh}, Format: protocol.CSCS12, Pixels: pix}
	var op Op = frame // boxed once, as a server's ops arrive
	encode := func() {
		if _, err := e.Encode(op); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 {
		encode()
	}
	// sync.Pool may drop the codec's scratch at a GC mid-run; the budget's
	// slack covers that.
	const budget = 3
	if allocs := testing.AllocsPerRun(50, encode); allocs > budget {
		t.Errorf("a %dx%d CSCS-12 frame in %d strips allocates %.1f objects, want at most %d", vw, vh, ceilDiv(vh, videoRows(frame)), allocs, budget)
	}
}

// --- BenchmarkHotpath_*: encoder wire path ---

func BenchmarkHotpath_EmitFill(b *testing.B) {
	e := NewEncoder(64, 64)
	msg := &protocol.Fill{Rect: protocol.Rect{W: 16, H: 16}, Color: 42}
	for i := 0; i < 5000; i++ { // wrap the sent log
		e.begin()
		e.emit(msg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.begin()
		e.emit(msg)
	}
}

func BenchmarkHotpath_RepaintAllSerial(b *testing.B) {
	e := NewEncoder(1280, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range e.FB.Pix {
		e.FB.Pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	b.SetBytes(int64(1280 * 1024 * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RepaintAll()
	}
}

func BenchmarkHotpath_EncodeVideoSerial(b *testing.B) {
	e := NewEncoder(352, 288)
	const vw, vh = 352, 240
	pix := make([]protocol.Pixel, vw*vh)
	for i := range pix {
		pix[i] = protocol.RGB(uint8(i), uint8(i/vw), 128)
	}
	op := VideoOp{
		Src:    protocol.Rect{W: vw, H: vh},
		Dst:    protocol.Rect{W: vw, H: vh},
		Format: protocol.CSCS12,
		Pixels: pix,
	}
	b.SetBytes(int64(vw * vh * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(op); err != nil {
			b.Fatal(err)
		}
	}
}

// video6 is the frame the repository benchmark's video workload plays:
// 320x240 at CSCS-6 (60 strips when sent), placed off-origin on a
// 1280x1024 gen-2 session, from a panning gradient with a checker like the
// MPEG-II stand-in's. The op is boxed once, as a server's ops arrive.
func video6() (*Encoder, Op) {
	const vw, vh = 320, 240
	e := NewEncoder(1280, 1024)
	e.EnableCodec2(0)
	pix := make([]protocol.Pixel, vw*vh)
	for y := range vh {
		for x := range vw {
			pix[y*vw+x] = protocol.RGB(uint8(x*255/vw), uint8(y*255/vh), uint8(128+64*((x>>4+y>>4)&1)))
		}
	}
	return e, VideoOp{
		Src:    protocol.Rect{W: vw, H: vh},
		Dst:    protocol.Rect{X: 482, Y: 390, W: vw, H: vh},
		Format: protocol.CSCS6,
		Pixels: pix,
	}
}

// TestOwedVideoFrameAllocatesNothing pins what a governed session pays for
// a video frame it owes instead of sending: Apply paints the frame's own
// pixels, so the video6 frame costs no allocation, and a scaled one none
// once the frame buffer's scale surface has grown.
func TestOwedVideoFrameAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e, op := video6()
	var scaled Op = VideoOp{Src: protocol.Rect{W: 160, H: 120}, Dst: protocol.Rect{X: 7, Y: 9, W: 320, H: 240},
		Format: protocol.CSCS6, Pixels: op.(VideoOp).Pixels[:160*120]}
	for name, op := range map[string]Op{"320x240": op, "160x120 scaled to 320x240": scaled} {
		apply := func() {
			if _, err := e.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		apply()
		if allocs := testing.AllocsPerRun(50, apply); allocs != 0 {
			t.Errorf("an owed %s video frame allocates %.1f objects, want 0", name, allocs)
		}
	}
}

// BenchmarkHotpath_EncodeVideo6 encodes the video6 frame, as a session
// sends it.
func BenchmarkHotpath_EncodeVideo6(b *testing.B) {
	e, op := video6()
	b.SetBytes(int64(op.Bounds().Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Encode(op); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpath_ApplyVideo6 applies the video6 frame, as a session
// that owes it instead of sending keeps it.
func BenchmarkHotpath_ApplyVideo6(b *testing.B) {
	e, op := video6()
	b.SetBytes(int64(op.Bounds().Pixels() * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Apply(op); err != nil {
			b.Fatal(err)
		}
	}
}
