package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"slim/internal/fb"
	"slim/internal/protocol"
)

// applyAll decodes datagrams and applies them to a console frame buffer.
func applyAll(t *testing.T, screen *fb.Framebuffer, dgs []Datagram) {
	t.Helper()
	for _, d := range dgs {
		seq, msg, n, err := protocol.Decode(d.Wire)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != len(d.Wire) {
			t.Fatalf("datagram has %d trailing bytes", len(d.Wire)-n)
		}
		if seq != d.Seq {
			t.Fatalf("seq mismatch: wire %d, datagram %d", seq, d.Seq)
		}
		if err := screen.Apply(msg); err != nil {
			t.Fatalf("apply %v: %v", msg.Type(), err)
		}
	}
}

func TestEncodeFillOp(t *testing.T) {
	e := NewEncoder(64, 64)
	dgs, err := e.Encode(FillOp{Rect: protocol.Rect{X: 1, Y: 2, W: 10, H: 10}, Color: 0x123456})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 {
		t.Fatalf("fill produced %d datagrams", len(dgs))
	}
	if dgs[0].Msg.Type() != protocol.TypeFill {
		t.Errorf("fill lowered to %v", dgs[0].Msg.Type())
	}
}

func TestEncodeTextOpBecomesBitmap(t *testing.T) {
	e := NewEncoder(64, 64)
	r := protocol.Rect{W: 16, H: 16}
	bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
	bits[0] = 0xff
	dgs, err := e.Encode(TextOp{Rect: r, Fg: 1, Bg: 2, Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 || dgs[0].Msg.Type() != protocol.TypeBitmap {
		t.Fatalf("text lowered to %v (%d datagrams)", dgs[0].Msg.Type(), len(dgs))
	}
}

func TestEncodeUniformImageBecomesFill(t *testing.T) {
	e := NewEncoder(64, 64)
	r := protocol.Rect{W: 20, H: 20}
	pix := make([]protocol.Pixel, r.Pixels())
	for i := range pix {
		pix[i] = 0xabcdef
	}
	dgs, err := e.Encode(ImageOp{Rect: r, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 || dgs[0].Msg.Type() != protocol.TypeFill {
		t.Fatalf("uniform image lowered to %v", dgs[0].Msg.Type())
	}
}

func TestEncodeBicolorImageBecomesBitmap(t *testing.T) {
	e := NewEncoder(64, 64)
	r := protocol.Rect{W: 16, H: 4}
	pix := make([]protocol.Pixel, r.Pixels())
	for i := range pix {
		if i%3 == 0 {
			pix[i] = 0x111111
		} else {
			pix[i] = 0x222222
		}
	}
	dgs, err := e.Encode(ImageOp{Rect: r, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 || dgs[0].Msg.Type() != protocol.TypeBitmap {
		t.Fatalf("bicolor image lowered to %v", dgs[0].Msg.Type())
	}
	// Majority color must be background (cheaper to keep fg sparse).
	bm := dgs[0].Msg.(*protocol.Bitmap)
	if bm.Bg != 0x222222 {
		t.Errorf("background = %06x, want the majority color", bm.Bg)
	}
}

func TestEncodeNoisyImageBecomesSetChunks(t *testing.T) {
	e := NewEncoder(1280, 1024)
	rng := rand.New(rand.NewSource(1))
	r := protocol.Rect{W: 100, H: 100}
	pix := make([]protocol.Pixel, r.Pixels())
	for i := range pix {
		pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	dgs, err := e.Encode(ImageOp{Rect: r, Pixels: pix})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) < 2 {
		t.Fatalf("10Kpx image fit in %d datagrams under a %dB MTU", len(dgs), DefaultMTU)
	}
	for _, d := range dgs {
		if d.Msg.Type() != protocol.TypeSet {
			t.Fatalf("noisy image lowered to %v", d.Msg.Type())
		}
		if len(d.Wire) > MaxDatagram {
			t.Fatalf("datagram %d bytes exceeds MTU budget", len(d.Wire))
		}
	}
}

func TestEncodeScrollOp(t *testing.T) {
	e := NewEncoder(64, 64)
	e.FB.Fill(protocol.Rect{X: 0, Y: 10, W: 64, H: 10}, 0x777777)
	dgs, err := e.Encode(ScrollOp{Rect: protocol.Rect{X: 0, Y: 10, W: 64, H: 10}, DY: -10})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) != 1 || dgs[0].Msg.Type() != protocol.TypeCopy {
		t.Fatalf("scroll lowered to %v", dgs[0].Msg.Type())
	}
	if e.FB.At(0, 0) != 0x777777 {
		t.Error("server FB did not scroll")
	}
}

func TestEncodeVideoStrips(t *testing.T) {
	e := NewEncoder(800, 600)
	const w, h = 64, 48
	pix := make([]protocol.Pixel, w*h)
	for i := range pix {
		pix[i] = protocol.RGB(uint8(i), uint8(i/2), uint8(i/3))
	}
	dgs, err := e.Encode(VideoOp{
		Src:    protocol.Rect{W: w, H: h},
		Dst:    protocol.Rect{X: 10, Y: 10, W: w, H: h},
		Format: protocol.CSCS12,
		Pixels: pix,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dgs) < 2 {
		t.Fatalf("64x48 12bpp frame fit in %d datagrams", len(dgs))
	}
	// Strips must tile the destination exactly, and each must carry its
	// own rows' payload: the strips share one slab, cut before any is
	// emitted.
	covered := 0
	for _, d := range dgs {
		cs := d.Msg.(*protocol.CSCS)
		if len(d.Wire) > MaxDatagram {
			t.Fatalf("video datagram %dB over MTU", len(d.Wire))
		}
		covered += cs.Dst.H
		if cs.Dst.W != w {
			t.Fatalf("strip width %d", cs.Dst.W)
		}
		_, msg, _, err := protocol.Decode(d.Wire)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fb.EncodeCSCS(pix[cs.Src.Y*w:(cs.Src.Y+cs.Src.H)*w], w, cs.Src.H, protocol.CSCS12)
		if err != nil {
			t.Fatal(err)
		}
		if got := msg.(*protocol.CSCS).Data; !bytes.Equal(got, want) {
			t.Fatalf("strip at row %d carries %d bytes unlike its rows' %d-byte payload", cs.Src.Y, len(got), len(want))
		}
	}
	if covered != h {
		t.Fatalf("strips cover %d rows, want %d", covered, h)
	}
}

// TestReconstructMatchesDecode: the server never decodes its own CSCS —
// Encode paints the reconstruction of the codes it packed, Apply that of
// the codes it quantized without packing — so for every format, at odd and
// even sizes, sent at size and scaled, the server's frame buffer must
// equal that of a console which decoded the wire.
func TestReconstructMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	formats := []protocol.CSCSFormat{protocol.CSCS16, protocol.CSCS12, protocol.CSCS8, protocol.CSCS6, protocol.CSCS5}
	sizes := [][2]int{{1, 1}, {2, 2}, {3, 5}, {7, 4}, {320, 4}, {321, 5}, {720, 2}}
	const sw, sh = 1024, 32
	for _, format := range formats {
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			pix := make([]protocol.Pixel, w*h)
			for i := range pix {
				pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
			}
			for _, dst := range []protocol.Rect{
				{X: 5, Y: 7, W: w, H: h},
				{X: 1, Y: 3, W: w*4/3 + 1, H: 2*h + 1},
			} {
				op := VideoOp{Src: protocol.Rect{W: w, H: h}, Dst: dst, Format: format, Pixels: pix}
				enc, app, console := NewEncoder(sw, sh), NewEncoder(sw, sh), fb.New(sw, sh)
				dgs, err := enc.Encode(op)
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range dgs {
					_, msg, _, err := protocol.Decode(d.Wire)
					if err != nil {
						t.Fatal(err)
					}
					if err := console.Apply(msg); err != nil {
						t.Fatal(err)
					}
					dgs[i].ReleaseWire()
				}
				if _, err := app.Apply(op); err != nil {
					t.Fatal(err)
				}
				for who, f := range map[string]*fb.Framebuffer{"Encode": enc.FB, "Apply": app.FB} {
					if n, _ := f.DiffPixels(console); n != 0 {
						t.Errorf("%v %dx%d to %v: %s's frame buffer differs from the decoding console's in %d pixels", format, w, h, dst, who, n)
					}
				}
			}
		}
	}
}

// TestVideoStripsFillTheMTU: a frame that does not fit one datagram leaves
// in the tallest even strips that do — every strip within the MTU, none
// with room for two more rows (the halving search this replaced sent a
// 320x240 CSCS6 frame as 120 two-row strips of 509 B where four rows fit).
func TestVideoStripsFillTheMTU(t *testing.T) {
	cases := []struct {
		w, h   int
		format protocol.CSCSFormat
		strips int // 0: not pinned
	}{
		{320, 240, protocol.CSCS6, 60},
		{320, 240, protocol.CSCS5, 0},
		{320, 240, protocol.CSCS16, 0},
		{640, 480, protocol.CSCS8, 0},
		{352, 288, protocol.CSCS12, 0},
		{64, 48, protocol.CSCS12, 0},
		{31, 17, protocol.CSCS16, 0},
		{1280, 6, protocol.CSCS16, 0}, // two rows already over budget: the floor
		{16, 16, protocol.CSCS5, 1},   // fits whole
	}
	for _, tc := range cases {
		e := NewEncoder(1280, 1024)
		dgs, err := e.Encode(VideoOp{
			Src:    protocol.Rect{W: tc.w, H: tc.h},
			Dst:    protocol.Rect{W: tc.w, H: tc.h},
			Format: tc.format,
			Pixels: make([]protocol.Pixel, tc.w*tc.h),
		})
		if err != nil {
			t.Fatal(err)
		}
		if tc.strips != 0 && len(dgs) != tc.strips {
			t.Errorf("%dx%d format %d: %d strips, want %d", tc.w, tc.h, tc.format, len(dgs), tc.strips)
		}
		budget := DefaultMTU - 17
		rows := 0
		for i, d := range dgs {
			cs := d.Msg.(*protocol.CSCS)
			rows += cs.Src.H
			if len(cs.Data) > budget && cs.Src.H > 2 {
				t.Errorf("%dx%d format %d: strip %d is %d rows, %d B over the %d B budget",
					tc.w, tc.h, tc.format, i, cs.Src.H, len(cs.Data), budget)
			}
			last := i == len(dgs)-1
			if !last && cs.Src.H%2 != 0 {
				t.Errorf("%dx%d format %d: strip %d has odd height %d", tc.w, tc.h, tc.format, i, cs.Src.H)
			}
			if !last && tc.format.PayloadLen(tc.w, cs.Src.H+2) <= budget {
				t.Errorf("%dx%d format %d: strip %d is %d rows (%d B) but %d would fit",
					tc.w, tc.h, tc.format, i, cs.Src.H, len(cs.Data), cs.Src.H+2)
			}
		}
		if rows != tc.h {
			t.Errorf("%dx%d format %d: strips carry %d rows", tc.w, tc.h, tc.format, rows)
		}
		for i := range dgs {
			dgs[i].ReleaseWire()
		}
	}
}

// The load-bearing invariant of the whole system: after applying an
// encoder's datagrams in order, a console frame buffer is pixel-identical
// to the server's authoritative frame buffer — for arbitrary op sequences.
func TestConsoleMatchesServerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for round := 0; round < 30; round++ {
		e := NewEncoder(160, 120)
		screen := fb.New(160, 120)
		for op := 0; op < 25; op++ {
			dgs, err := e.Encode(randomOp(rng, 160, 120))
			if err != nil {
				t.Fatal(err)
			}
			applyAll(t, screen, dgs)
		}
		// Video ops are lossy (YUV quantization) so compare with
		// tolerance-free equality only when no video op ran; randomOp
		// avoids video for this test.
		if !screen.Equal(e.FB) {
			t.Fatalf("round %d: console and server frame buffers diverged", round)
		}
	}
}

func randomOp(rng *rand.Rand, w, h int) Op {
	r := protocol.Rect{
		X: rng.Intn(w - 8), Y: rng.Intn(h - 8),
		W: 1 + rng.Intn(32), H: 1 + rng.Intn(32),
	}
	if r.X+r.W > w {
		r.W = w - r.X
	}
	if r.Y+r.H > h {
		r.H = h - r.Y
	}
	switch rng.Intn(4) {
	case 0:
		return FillOp{Rect: r, Color: protocol.Pixel(rng.Uint32() & 0xffffff)}
	case 1:
		bits := make([]byte, protocol.BitmapRowBytes(r.W)*r.H)
		rng.Read(bits)
		return TextOp{Rect: r, Fg: 0xffffff, Bg: 0x000040, Bits: bits}
	case 2:
		dx := rng.Intn(9) - 4
		dy := rng.Intn(9) - 4
		if dx == 0 && dy == 0 {
			dx = 1
		}
		return ScrollOp{Rect: r, DX: dx, DY: dy}
	default:
		pix := make([]protocol.Pixel, r.Pixels())
		for i := range pix {
			pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
		}
		return ImageOp{Rect: r, Pixels: pix}
	}
}

func TestRepaintMatchesFB(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := NewEncoder(100, 80)
	for i := 0; i < 10; i++ {
		if _, err := e.Encode(randomOp(rng, 100, 80)); err != nil {
			t.Fatal(err)
		}
	}
	screen := fb.New(100, 80)
	applyAll(t, screen, e.RepaintAll())
	if !screen.Equal(e.FB) {
		t.Fatal("repaint did not reproduce the authoritative frame buffer")
	}
}

// repayNack answers the loss n the way a session does: the Damage region,
// repainted rect by rect from the frame buffer, or the whole screen when
// the range has aged out of the sent log.
func repayNack(e *Encoder, n protocol.Nack) []Datagram {
	damage, ok := e.Damage(n)
	if !ok {
		return e.RepaintAll()
	}
	return e.Repay(&damage, math.MaxInt)
}

func TestDamageRepaintsAffectedUnion(t *testing.T) {
	e := NewEncoder(64, 64)
	d1, err := e.Encode(FillOp{Rect: protocol.Rect{X: 0, Y: 0, W: 16, H: 16}, Color: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Encode(FillOp{Rect: protocol.Rect{X: 32, Y: 32, W: 8, H: 8}, Color: 2}); err != nil {
		t.Fatal(err)
	}
	out := repayNack(e, protocol.Nack{From: d1[0].Seq, To: d1[0].Seq})
	if len(out) == 0 {
		t.Fatal("nack produced nothing")
	}
	// Recovery covers the lost fill; the later, disjoint non-COPY command
	// was applied correctly and is left alone — recovery stays
	// proportional to the loss.
	var covered fb.Region
	pixels := 0
	for _, d := range out {
		r := WriteRect(d.Msg)
		covered.Add(r)
		pixels += r.Pixels()
	}
	if !covered.Contains(5, 5) {
		t.Error("recovery misses the lost region")
	}
	if covered.Contains(35, 35) {
		t.Error("recovery repainted an unaffected region")
	}
	if pixels >= 64*64 {
		t.Errorf("recovery repainted the whole screen (%d px)", pixels)
	}
	// Applying recovery to a console that lost d1 entirely converges.
	screen := fb.New(64, 64)
	screen.Fill(protocol.Rect{X: 32, Y: 32, W: 8, H: 8}, 2)
	applyAll(t, screen, out)
	if !screen.Equal(e.FB) {
		t.Fatal("recovery did not converge")
	}
}

// TestDamageLostCopyScenario reproduces the soak-test failure mode:
// a COPY is lost, later commands land, and recovery must fix both the
// copy's destination and anything it would have moved.
func TestDamageLostCopyScenario(t *testing.T) {
	e := NewEncoder(64, 64)
	if _, err := e.Encode(FillOp{Rect: protocol.Rect{X: 0, Y: 0, W: 16, H: 16}, Color: 7}); err != nil {
		t.Fatal(err)
	}
	screen := fb.New(64, 64)
	applyAll(t, screen, e.RepaintAll())

	// The console loses this scroll...
	lost, err := e.Encode(ScrollOp{Rect: protocol.Rect{X: 0, Y: 0, W: 16, H: 16}, DX: 20})
	if err != nil {
		t.Fatal(err)
	}
	// ...but applies the next command.
	after, err := e.Encode(FillOp{Rect: protocol.Rect{X: 0, Y: 0, W: 4, H: 4}, Color: 3})
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, screen, after)
	// Nack-driven recovery converges despite the stale copy source.
	applyAll(t, screen, repayNack(e, protocol.Nack{From: lost[0].Seq, To: lost[0].Seq}))
	if !screen.Equal(e.FB) {
		t.Fatal("lost-COPY recovery diverged")
	}
}

func TestDamageAgedOutRepaints(t *testing.T) {
	e := NewEncoder(32, 32)
	e.sent = make(sentLog, 2) // tiny log so seq 1 ages out
	first, err := e.Encode(FillOp{Rect: protocol.Rect{W: 32, H: 32}, Color: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Encode(FillOp{Rect: protocol.Rect{W: 4, H: 4}, Color: protocol.Pixel(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := protocol.Nack{From: first[0].Seq, To: first[0].Seq}
	if _, ok := e.Damage(n); ok {
		t.Fatal("Damage answered for a sequence number the log no longer holds")
	}
	out := repayNack(e, n)
	if len(out) == 0 {
		t.Fatal("aged-out nack produced nothing")
	}
	// Applying the recovery datagrams must reproduce the current state.
	screen := fb.New(32, 32)
	applyAll(t, screen, out)
	if !screen.Equal(e.FB) {
		t.Fatal("nack recovery did not restore the display")
	}
}

func TestValidateOpErrors(t *testing.T) {
	e := NewEncoder(64, 64)
	cases := []Op{
		FillOp{Rect: protocol.Rect{W: 0, H: 5}},
		TextOp{Rect: protocol.Rect{W: 8, H: 8}, Bits: []byte{1}},
		ImageOp{Rect: protocol.Rect{W: 2, H: 2}, Pixels: make([]protocol.Pixel, 3)},
		ScrollOp{Rect: protocol.Rect{W: 4, H: 4}},
		VideoOp{Src: protocol.Rect{W: 2, H: 2}, Dst: protocol.Rect{W: 2, H: 2}, Format: 99, Pixels: make([]protocol.Pixel, 4)},
	}
	for i, op := range cases {
		if _, err := e.Encode(op); err == nil {
			t.Errorf("case %d: invalid op accepted", i)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	e := NewEncoder(64, 64)
	if _, err := e.Encode(FillOp{Rect: protocol.Rect{W: 10, H: 10}, Color: 3}); err != nil {
		t.Fatal(err)
	}
	ts := e.Stats.PerType[protocol.TypeFill]
	if ts == nil || ts.Commands != 1 || ts.Pixels != 100 || ts.RawBytes != 300 {
		t.Fatalf("fill stats = %+v", ts)
	}
	if e.Stats.CompressionFactor() < 5 {
		t.Errorf("fill compression = %f", e.Stats.CompressionFactor())
	}
	var other CommandStats
	other.Merge(&e.Stats)
	if other.TotalWireBytes() != e.Stats.TotalWireBytes() {
		t.Error("merge lost bytes")
	}
	if e.Stats.String() == "" {
		t.Error("empty stats string")
	}
	e.Stats.Reset()
	if e.Stats.TotalCommands() != 0 {
		t.Error("reset did not clear")
	}
}

func TestSunRay1CostModel(t *testing.T) {
	costs := SunRay1Costs()
	// Table 5 spot checks.
	fill := &protocol.Fill{Rect: protocol.Rect{W: 100, H: 100}}
	want := 5000 + 2*100*100 // ns
	if got := costs.ServiceTime(fill).Nanoseconds(); got != int64(want) {
		t.Errorf("FILL 100x100 = %dns, want %d", got, want)
	}
	set := &protocol.Set{Rect: protocol.Rect{W: 10, H: 10}, Pixels: make([]protocol.Pixel, 100)}
	if got := costs.ServiceTime(set).Nanoseconds(); got != 5000+270*100 {
		t.Errorf("SET 10x10 = %dns", got)
	}
	// CSCS cost scales with destination pixels.
	cscs := &protocol.CSCS{Src: protocol.Rect{W: 10, H: 10}, Dst: protocol.Rect{W: 20, H: 20}, Format: protocol.CSCS5}
	if got := costs.ServiceTime(cscs).Nanoseconds(); got != 24000+150*400 {
		t.Errorf("CSCS scaled = %dns", got)
	}
	// Sustained rate: FILL moves pixels orders of magnitude faster than SET.
	fillRate := costs.SustainedPixelRate(protocol.TypeFill, 0, 10000)
	setRate := costs.SustainedPixelRate(protocol.TypeSet, 0, 10000)
	if fillRate < 50*setRate {
		t.Errorf("fill rate %.0f not far above set rate %.0f", fillRate, setRate)
	}
}

// TestSentLogWrapAndStaleSlots pins the log's ring behaviour: a record
// survives until capacity newer ones have been written, the slot it shared
// then answers only for its new owner, and sequence numbers never logged —
// 0 (a blank slot's value), ones not yet issued — are absent, which is
// what makes Damage report the range aged out (a full repaint).
func TestSentLogWrapAndStaleSlots(t *testing.T) {
	bounds := protocol.Rect{W: 64, H: 64}
	l := make(sentLog, 4)
	if _, ok := l.get(0); ok {
		t.Error("blank slot answers for sequence number 0")
	}
	for seq := uint32(1); seq <= 6; seq++ {
		l.record(seq, &protocol.Fill{Rect: protocol.Rect{X: int(seq), W: 1, H: 1}}, bounds)
	}
	for seq := uint32(1); seq <= 2; seq++ {
		if _, ok := l.get(seq); ok {
			t.Errorf("seq %d still present after the ring wrapped past it", seq)
		}
	}
	for seq := uint32(3); seq <= 6; seq++ {
		r, ok := l.get(seq)
		if !ok || r.rect.rect() != (protocol.Rect{X: int(seq), W: 1, H: 1}) {
			t.Errorf("seq %d: record %+v, present %v", seq, r, ok)
		}
	}
	if _, ok := l.get(7); ok {
		t.Error("never-logged sequence number present")
	}
	// Seq 7 reuses seq 3's slot, which then answers for 7 alone.
	l.record(7, &protocol.Fill{Rect: protocol.Rect{W: 1, H: 1}}, bounds)
	if _, ok := l.get(3); ok {
		t.Error("seq 3 still present after seq 7 took its slot")
	}
	if r, ok := l.get(7); !ok || r.rect.rect() != (protocol.Rect{W: 1, H: 1}) {
		t.Errorf("reused slot: record %+v, present %v", r, ok)
	}

	// What each command leaves behind: COPY its source and its destination,
	// CACHE_PAINT its key, everything clipped.
	l.record(8, &protocol.Copy{Rect: protocol.Rect{X: 0, Y: 0, W: 16, H: 16}, DstX: 56, DstY: 8}, bounds)
	l.record(9, &protocol.CachePaint{Rect: protocol.Rect{X: 16, Y: 16, W: 16, H: 16}, Key: 0xfeed}, bounds)
	cp, _ := l.get(8)
	if cp.src.rect() != (protocol.Rect{W: 16, H: 16}) || cp.rect.rect() != (protocol.Rect{X: 56, Y: 8, W: 8, H: 16}) || cp.key != 0 {
		t.Errorf("COPY record %+v", cp)
	}
	if hit, _ := l.get(9); hit.key != 0xfeed || !hit.src.rect().Empty() {
		t.Errorf("CACHE_PAINT record %+v", hit)
	}
}

// TestSentLogSizedFromScreen: capacity is the power of two at or above
// twice the gen-2 tiles per screen, never under the 4,096 of the ring the
// log replaced, and the whole log of a 1280×1024 session stays under 1 MB.
func TestSentLogSizedFromScreen(t *testing.T) {
	for _, c := range []struct{ w, h, want int }{
		{1280, 1024, 16384}, {1024, 768, 8192}, {640, 480, 4096}, {64, 64, 4096},
	} {
		if got := sentLogCapacity(c.w, c.h); got != c.want {
			t.Errorf("%dx%d: capacity %d, want %d", c.w, c.h, got, c.want)
		}
	}
	if bytes := 16384 * int(unsafe.Sizeof(sentRecord{})); bytes >= 1<<20 {
		t.Errorf("1280x1024 log is %d bytes, want under 1 MB", bytes)
	}
}

// TestMidAttachNackRepaintsOneTile: a 1280×1024 gen-2 attach is 5,120
// commands, more than the fixed 4,096-entry ring this log replaced could
// hold, so a NACK for any of its first 1,024 fell back to a second full
// repaint — which overflowed the ring again. Sized from the screen, the log
// answers with the one tile that was lost.
func TestMidAttachNackRepaintsOneTile(t *testing.T) {
	e := NewEncoder(1280, 1024)
	rng := rand.New(rand.NewSource(5))
	for i := range e.FB.Pix {
		e.FB.Pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
	}
	e.EnableCodec2(0)
	attach := e.RepaintAll()
	if len(attach) != 5120 {
		t.Fatalf("attach is %d commands, want one per tile (5120)", len(attach))
	}
	lost := attach[512]
	screen := fb.New(1280, 1024)
	applyAll(t, screen, attach[:512])
	applyAll(t, screen, attach[513:])
	out := repayNack(e, protocol.Nack{From: lost.Seq, To: lost.Seq})
	if len(out) == 0 || len(out) > 4 {
		t.Fatalf("recovery of one lost tile is %d commands, want 1..4", len(out))
	}
	if _, claim := out[0].Msg.(*protocol.CachePaint); claim {
		// The tile's pixels never reached the console, so a CACHE_PAINT
		// claiming them misses there and is NACKed in turn; that answer
		// is literal.
		out = repayNack(e, protocol.Nack{From: out[0].Seq, To: out[len(out)-1].Seq})
		if len(out) == 0 || len(out) > 4 {
			t.Fatalf("second answer is %d commands, want 1..4", len(out))
		}
	}
	applyAll(t, screen, out)
	if !screen.Equal(e.FB) {
		t.Fatal("recovery did not converge")
	}
}

func TestSkipWire(t *testing.T) {
	e := NewEncoder(64, 64)
	e.SkipWire = true
	dgs, err := e.Encode(FillOp{Rect: protocol.Rect{W: 8, H: 8}, Color: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dgs[0].Wire != nil {
		t.Error("SkipWire still marshalled bytes")
	}
	if e.FB.At(0, 0) != 1 {
		t.Error("SkipWire skipped rendering too")
	}
	if e.Stats.TotalCommands() != 1 {
		t.Error("SkipWire skipped accounting")
	}
}
