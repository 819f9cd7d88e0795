package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// TestReleaseWireReturnsBufferToPool pins the pooled buffer's one-owner
// lifecycle: the emitted datagram owns its wire buffer, ReleaseWire puts it
// back in the pool (the next emit of that size class gets the same buffer
// again — the encoder kept no claim on it) and clears the datagram, and a
// second release of the same buffer, through a stale copy of the datagram,
// panics instead of pooling one buffer twice.
func TestReleaseWireReturnsBufferToPool(t *testing.T) {
	e := NewEncoder(64, 64)
	msg := &protocol.Fill{Rect: protocol.Rect{W: 8, H: 8}, Color: 1}
	reused := 0
	for i := 0; i < 100; i++ {
		d := e.emit(msg)
		buf := d.Buf
		if buf == nil {
			t.Fatal("no pooled buffer on emitted datagram")
		}
		d.ReleaseWire()
		if d.Buf != nil || d.Wire != nil {
			t.Fatal("ReleaseWire did not clear the datagram")
		}
		d.ReleaseWire() // idempotent per Datagram value
		next := e.emit(msg)
		if next.Buf == buf {
			reused++
		}
		next.ReleaseWire()
	}
	// sync.Pool is best-effort (a GC, or the race detector's deliberate
	// drops, may lose a Put), but a released buffer the encoder still
	// referenced could never come back at all.
	if reused == 0 {
		t.Error("no released buffer ever came back from the pool")
	}

	d := e.emit(msg)
	stale := d
	d.ReleaseWire()
	defer func() {
		if recover() == nil {
			t.Error("releasing one buffer through two datagram copies did not panic")
		}
	}()
	stale.ReleaseWire()
}

// liveHeap reports the bytes still reachable after two collections — the
// second empties sync.Pool's victim cache, so pooled wire buffers nobody
// holds are gone from the figure.
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
// whole, would hold about 13 MB of messages, payloads and 2 KiB wire
// buffers — with every datagram released, what the encoder keeps alive
// beyond its frame buffer, its scratch slabs and its tile-cache slots (the
// 512 KB sent log, the cache index, the churn map, the accounting) is
// under 768 KB. The gen-2 repaint reads the frame buffer in place, so it
// leaves no full-screen staging copy behind, and so does a gen-1 repaint
// of a blank screen, which is one FILL.
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
	release := func(dgs []Datagram) {
		for i := range dgs {
			dgs[i].ReleaseWire()
		}
	}
	release(e.RepaintAll())
	if cap(e.repaintPix) != 0 {
		t.Errorf("gen-2 RepaintAll left a %d-pixel staging slab", cap(e.repaintPix))
	}
	op := VideoOp{Src: protocol.Rect{W: vw, H: vh}, Dst: protocol.Rect{X: 64, Y: 64, W: vw, H: vh}, Format: protocol.CSCS6, Pixels: frame}
	for i := 0; i < 80; i++ {
		frame[i] ^= 0xffffff
		dgs, err := e.Encode(op)
		if err != nil {
			t.Fatal(err)
		}
		release(dgs)
	}

	grown := liveHeap() - before
	const px = int64(unsafe.Sizeof(protocol.Pixel(0)))
	accounted := px*int64(cap(e.FB.Pix)+cap(e.setSlab)+cap(e.codec2.pix)) +
		int64(cap(e.bitSlab)+cap(e.bicolorBits)+cap(e.cscsSlab)) +
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
// buffer pool is warm, emitting a small command with wire generation on —
// marshal into a pooled buffer, one sent-log record — allocates nothing
// but the message itself (which this white-box test reuses).
func TestEmitZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEncoder(64, 64)
	msg := &protocol.Fill{Rect: protocol.Rect{W: 16, H: 16}, Color: 42}
	// Warm the pool, and wrap the sent log once for good measure.
	for i := 0; i < 5000; i++ {
		d := e.emit(msg)
		d.ReleaseWire()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		d := e.emit(msg)
		d.ReleaseWire()
	})
	// sync.Pool contents may be dropped by a GC mid-run; amortized over
	// 2000 runs that is well under one object per op. Steady state is 0.
	if allocs > 0.01 {
		t.Errorf("warm emit path allocates %.3f objects/op, want 0", allocs)
	}
}

// TestVideoFrameAllocs pins the video path's allocation budget: once the
// wire pool is warm, encoding a 352x240 CSCS-12 frame allocates one CSCS
// message per strip and the two slices that list them — the strips'
// payloads are cut from the encoder's slab, not allocated strip by strip.
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
	op := VideoOp{Src: protocol.Rect{W: vw, H: vh}, Dst: protocol.Rect{W: vw, H: vh}, Format: protocol.CSCS12, Pixels: pix}
	encode := func() {
		dgs, err := e.Encode(op)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dgs {
			dgs[i].ReleaseWire()
		}
	}
	for range 5 {
		encode()
	}
	strips := ceilDiv(vh, videoRows(op, e.MTU))
	// sync.Pool may drop a wire buffer at a GC mid-run; one object a frame
	// covers it.
	if allocs, budget := testing.AllocsPerRun(50, encode), float64(strips+2+1); allocs > budget {
		t.Errorf("a %dx%d CSCS-12 frame in %d strips allocates %.1f objects, want at most %.0f", vw, vh, strips, allocs, budget)
	}
}

// --- BenchmarkHotpath_*: encoder wire path ---

func BenchmarkHotpath_EmitFill(b *testing.B) {
	e := NewEncoder(64, 64)
	msg := &protocol.Fill{Rect: protocol.Rect{W: 16, H: 16}, Color: 42}
	for i := 0; i < 5000; i++ { // warm pool
		d := e.emit(msg)
		d.ReleaseWire()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := e.emit(msg)
		d.ReleaseWire()
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
		for _, d := range e.RepaintAll() {
			d.ReleaseWire()
		}
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
		dgs, err := e.Encode(op)
		if err != nil {
			b.Fatal(err)
		}
		for _, d := range dgs {
			d.ReleaseWire()
		}
	}
}
