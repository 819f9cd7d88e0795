package core

import (
	"bytes"
	"math/rand"
	"testing"

	"slim/internal/par"
	"slim/internal/protocol"
	"slim/internal/raceflag"
	"slim/internal/wirebuf"
)

// hotpathOps builds the op stream both determinism tests feed through the
// serial and parallel encoders: a noisy image large enough to tile into
// many SET datagrams, a multi-strip video frame, plus the single-datagram
// commands.
func hotpathOps(rng *rand.Rand) []Op {
	imgR := protocol.Rect{X: 5, Y: 7, W: 300, H: 200}
	imgPix := make([]protocol.Pixel, imgR.Pixels())
	for i := range imgPix {
		imgPix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	const vw, vh = 176, 144
	vidPix := make([]protocol.Pixel, vw*vh)
	for i := range vidPix {
		vidPix[i] = protocol.RGB(uint8(i), uint8(i/vw*3), uint8(rng.Intn(256)))
	}
	bits := make([]byte, protocol.BitmapRowBytes(100)*40)
	rng.Read(bits)
	return []Op{
		FillOp{Rect: protocol.Rect{X: 0, Y: 0, W: 320, H: 240}, Color: protocol.RGB(9, 8, 7)},
		ImageOp{Rect: imgR, Pixels: imgPix},
		TextOp{Rect: protocol.Rect{X: 20, Y: 30, W: 100, H: 40}, Fg: 0xffffff, Bg: 0x000080, Bits: bits},
		VideoOp{
			Src:    protocol.Rect{W: vw, H: vh},
			Dst:    protocol.Rect{X: 8, Y: 8, W: vw, H: vh},
			Format: protocol.CSCS12,
			Pixels: vidPix,
		},
		ScrollOp{Rect: protocol.Rect{X: 0, Y: 50, W: 320, H: 150}, DX: 0, DY: -10},
	}
}

// TestParallelEncoderMatchesSerial is the determinism guarantee behind
// WithParallelEncoding: a parallel encoder must produce the exact datagram
// stream of a serial one — same sequence numbers, same wire bytes, same
// final frame buffer.
func TestParallelEncoderMatchesSerial(t *testing.T) {
	serial := NewEncoder(320, 240)
	parallel := NewEncoder(320, 240)
	parallel.Parallel = par.New(4)

	run := func(e *Encoder) []Datagram {
		var out []Datagram
		for _, op := range hotpathOps(rand.New(rand.NewSource(77))) {
			dgs, err := e.Encode(op)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, dgs...)
		}
		out = append(out, e.RepaintAll()...)
		return out
	}
	sd, pd := run(serial), run(parallel)

	if len(sd) != len(pd) {
		t.Fatalf("serial emitted %d datagrams, parallel %d", len(sd), len(pd))
	}
	for i := range sd {
		if sd[i].Seq != pd[i].Seq {
			t.Fatalf("datagram %d: seq %d vs %d", i, sd[i].Seq, pd[i].Seq)
		}
		if !bytes.Equal(sd[i].Wire, pd[i].Wire) {
			t.Fatalf("datagram %d (seq %d, %v): wire bytes differ",
				i, sd[i].Seq, sd[i].Msg.Type())
		}
	}
	if !serial.FB.Equal(parallel.FB) {
		t.Fatal("frame buffers diverged")
	}
	if serial.LastSeq() != parallel.LastSeq() {
		t.Fatalf("last seq %d vs %d", serial.LastSeq(), parallel.LastSeq())
	}
}

// TestParallelSkipWireStaysSerial pins the gate: SkipWire encoders never
// shard SETs (their messages own their payloads and no wire is made), and
// still produce the same command stream.
func TestParallelSkipWireStaysSerial(t *testing.T) {
	e := NewEncoder(320, 240)
	e.SkipWire = true
	e.Parallel = par.New(4)
	for _, op := range hotpathOps(rand.New(rand.NewSource(77))) {
		dgs, err := e.Encode(op)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dgs {
			if d.Wire != nil || d.Buf != nil {
				t.Fatal("SkipWire datagram carries wire")
			}
		}
	}
}

// TestEmitWireBufferRefcounts pins the pooled-buffer lifecycle: an emitted
// datagram holds the send reference, the replay ring holds a second, and
// ring eviction releases the ring's.
func TestEmitWireBufferRefcounts(t *testing.T) {
	e := NewEncoder(64, 64)
	d, err := e.Encode(FillOp{Rect: protocol.Rect{W: 8, H: 8}, Color: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf := d[0].Buf
	if buf == nil {
		t.Fatal("no pooled buffer on emitted datagram")
	}
	if got := buf.Refs(); got != 2 {
		t.Fatalf("refs after emit = %d, want 2 (sender + replay ring)", got)
	}
	d[0].ReleaseWire()
	if got := buf.Refs(); got != 1 {
		t.Fatalf("refs after ReleaseWire = %d, want 1 (replay ring)", got)
	}
	if d[0].Buf != nil || d[0].Wire != nil {
		t.Fatal("ReleaseWire did not clear the datagram")
	}
	d[0].ReleaseWire() // idempotent per Datagram value
	if got := buf.Refs(); got != 1 {
		t.Fatalf("refs after double ReleaseWire = %d, want 1", got)
	}
}

// TestReplayRingReleasesEvicted checks the ring's retain/release pairing
// directly: storing over a slot releases the evicted datagram's buffer.
func TestReplayRingReleasesEvicted(t *testing.T) {
	ring := NewReplayBuffer(2)
	mkDatagram := func(seq uint32) Datagram {
		buf := wirebuf.Get(16)
		return Datagram{Seq: seq, Buf: buf, Wire: buf.Bytes()}
	}
	d1, d2, d3 := mkDatagram(1), mkDatagram(2), mkDatagram(3)
	ring.Store(d1)
	ring.Store(d2)
	if got := d1.Buf.Refs(); got != 2 {
		t.Fatalf("stored buffer refs = %d, want 2", got)
	}
	ring.Store(d3) // same slot as seq 1 in a 2-deep ring
	if got := d1.Buf.Refs(); got != 1 {
		t.Fatalf("evicted buffer refs = %d, want 1 (creator only)", got)
	}
	if got := d3.Buf.Refs(); got != 2 {
		t.Fatalf("evicting buffer refs = %d, want 2", got)
	}
	if _, ok := ring.Get(1); ok {
		t.Fatal("evicted seq still resolvable")
	}
}

// TestEmitZeroAllocSteadyState asserts the ISSUE's wire-path budget: once
// the replay ring has cycled and the buffer pool is warm, emitting a
// small command with wire generation on allocates nothing but the message
// itself (which this white-box test reuses).
func TestEmitZeroAllocSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	e := NewEncoder(64, 64)
	msg := &protocol.Fill{Rect: protocol.Rect{W: 16, H: 16}, Color: 42}
	// Warm: fill the 4096-deep replay ring so every further emit recycles
	// an evicted buffer through the pool instead of growing it.
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

// --- BenchmarkHotpath_*: encoder wire path, serial vs parallel ---

func BenchmarkHotpath_EmitFill(b *testing.B) {
	e := NewEncoder(64, 64)
	msg := &protocol.Fill{Rect: protocol.Rect{W: 16, H: 16}, Color: 42}
	for i := 0; i < 5000; i++ { // warm ring + pool
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

func benchRepaint(b *testing.B, workers int) {
	e := NewEncoder(1280, 1024)
	if workers > 1 {
		e.Parallel = par.New(workers)
	}
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

func BenchmarkHotpath_RepaintAllSerial(b *testing.B)    { benchRepaint(b, 1) }
func BenchmarkHotpath_RepaintAllParallel4(b *testing.B) { benchRepaint(b, 4) }

func benchVideo(b *testing.B, workers int) {
	e := NewEncoder(352, 288)
	if workers > 1 {
		e.Parallel = par.New(workers)
	}
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

func BenchmarkHotpath_EncodeVideoSerial(b *testing.B)    { benchVideo(b, 1) }
func BenchmarkHotpath_EncodeVideoParallel4(b *testing.B) { benchVideo(b, 4) }
