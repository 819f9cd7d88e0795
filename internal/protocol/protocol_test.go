package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestRectValid(t *testing.T) {
	cases := []struct {
		r    Rect
		want bool
	}{
		{Rect{0, 0, 1, 1}, true},
		{Rect{0, 0, 0, 1}, false},
		{Rect{0, 0, 1, 0}, false},
		{Rect{-1, 0, 1, 1}, false},
		{Rect{0, -1, 1, 1}, false},
		{Rect{65535, 65535, 65535, 65535}, true},
		{Rect{0, 0, 65536, 1}, false},
	}
	for _, c := range cases {
		if got := c.r.Valid(); got != c.want {
			t.Errorf("Valid(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestRectPixels(t *testing.T) {
	if got := (Rect{W: 10, H: 20}).Pixels(); got != 200 {
		t.Errorf("Pixels = %d, want 200", got)
	}
	if got := (Rect{W: 0, H: 20}).Pixels(); got != 0 {
		t.Errorf("empty Pixels = %d, want 0", got)
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 10, H: 10}
	b := Rect{X: 5, Y: 5, W: 10, H: 10}
	want := Rect{X: 5, Y: 5, W: 5, H: 5}
	if got := a.Intersect(b); got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got := a.Intersect(Rect{X: 20, Y: 20, W: 5, H: 5}); !got.Empty() {
		t.Errorf("disjoint Intersect = %v, want empty", got)
	}
}

// Property: intersection is commutative and contained in both operands.
func TestRectIntersectProperties(t *testing.T) {
	f := func(ax, ay uint8, aw, ah uint8, bx, by, bw, bh uint8) bool {
		a := Rect{int(ax), int(ay), int(aw) + 1, int(ah) + 1}
		b := Rect{int(bx), int(by), int(bw) + 1, int(bh) + 1}
		ab := a.Intersect(b)
		ba := b.Intersect(a)
		if ab != ba {
			return false
		}
		if ab.Empty() {
			return true
		}
		return a.Contains(ab) && b.Contains(ab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectContains(t *testing.T) {
	outer := Rect{X: 0, Y: 0, W: 100, H: 100}
	if !outer.Contains(Rect{X: 10, Y: 10, W: 80, H: 80}) {
		t.Error("Contains inner = false")
	}
	if outer.Contains(Rect{X: 50, Y: 50, W: 80, H: 80}) {
		t.Error("Contains overflowing = true")
	}
	if !outer.Contains(Rect{}) {
		t.Error("Contains empty = false, want true")
	}
}

func TestPixelComponents(t *testing.T) {
	p := RGB(0x12, 0x34, 0x56)
	if p.R() != 0x12 || p.G() != 0x34 || p.B() != 0x56 {
		t.Errorf("components = %x %x %x", p.R(), p.G(), p.B())
	}
}

func TestMsgTypeString(t *testing.T) {
	if TypeSet.String() != "SET" {
		t.Errorf("SET name = %q", TypeSet)
	}
	if got := MsgType(200).String(); got != "MsgType(200)" {
		t.Errorf("unknown name = %q", got)
	}
	for ty := TypeSet; ty < maxMsgType; ty++ {
		if ty.String() == "" {
			t.Errorf("type %d has no name", ty)
		}
	}
}

func TestIsDisplay(t *testing.T) {
	for ty := TypeSet; ty <= TypeCSCS; ty++ {
		if !ty.IsDisplay() {
			t.Errorf("%v.IsDisplay() = false", ty)
		}
	}
	if TypeKey.IsDisplay() || TypeHello.IsDisplay() {
		t.Error("non-display type reported as display")
	}
}

// sampleMessages returns one populated instance of every message type.
func sampleMessages() []Message {
	bm := &Bitmap{
		Rect: Rect{X: 1, Y: 2, W: 17, H: 3},
		Fg:   RGB(1, 2, 3), Bg: RGB(4, 5, 6),
	}
	bm.Bits = make([]byte, BitmapRowBytes(17)*3)
	for i := range bm.Bits {
		bm.Bits[i] = byte(i * 37)
	}
	cs := &CSCS{
		Src: Rect{W: 8, H: 6}, Dst: Rect{X: 10, Y: 20, W: 16, H: 12},
		Format: CSCS12,
	}
	cs.Data = make([]byte, cs.Format.PayloadLen(8, 6))
	for i := range cs.Data {
		cs.Data[i] = byte(i)
	}
	return []Message{
		&Set{Rect: Rect{X: 3, Y: 4, W: 2, H: 2}, Pixels: []Pixel{1, 2, 3, 4}},
		bm,
		&Fill{Rect: Rect{X: 0, Y: 0, W: 100, H: 50}, Color: RGB(9, 8, 7)},
		&Copy{Rect: Rect{X: 5, Y: 6, W: 7, H: 8}, DstX: 9, DstY: 10},
		cs,
		&KeyEvent{Code: 0x1234, Down: true},
		&PointerEvent{X: 100, Y: 200, Buttons: 5},
		&Audio{SampleRate: 44100, Channels: 2, Samples: []byte{1, 2, 3, 4}},
		&Hello{Width: 1280, Height: 1024, CardToken: "card-42"},
		&HelloAck{SessionID: 7},
		&Status{LastSeq: 10, Dropped: 2, QueueDepth: 3},
		&Nack{From: 5, To: 9},
		&BandwidthRequest{SessionID: 1, Bps: 40_000_000},
		&BandwidthGrant{SessionID: 1, Bps: 20_000_000},
		&SessionConnect{Token: "tok"},
		&SessionAttach{SessionID: 3},
		&SessionDetach{SessionID: 3},
		&Ping{Nonce: 0xdeadbeef, Padding: make([]byte, 44)},
		&Pong{Nonce: 0xdeadbeef, Padding: make([]byte, 1180)},
		&Device{Port: 2, Payload: []byte("usb")},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, msg := range sampleMessages() {
		wire := Encode(nil, 42, msg)
		if len(wire) != WireSize(msg) {
			t.Errorf("%v: wire len %d != WireSize %d", msg.Type(), len(wire), WireSize(msg))
		}
		seq, got, n, err := Decode(wire)
		if err != nil {
			t.Fatalf("%v: decode: %v", msg.Type(), err)
		}
		if seq != 42 {
			t.Errorf("%v: seq = %d", msg.Type(), seq)
		}
		if n != len(wire) {
			t.Errorf("%v: consumed %d of %d", msg.Type(), n, len(wire))
		}
		if !reflect.DeepEqual(normalize(msg), normalize(got)) {
			t.Errorf("%v: roundtrip mismatch:\n have %#v\n want %#v", msg.Type(), got, msg)
		}
	}
}

// normalize maps nil and empty slices to a canonical form for DeepEqual.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *Ping:
		if len(v.Padding) == 0 {
			v.Padding = nil
		}
	case *Pong:
		if len(v.Padding) == 0 {
			v.Padding = nil
		}
	}
	return m
}

func TestDecodeAllBatched(t *testing.T) {
	msgs := sampleMessages()
	var wire []byte
	for i, m := range msgs {
		wire = Encode(wire, uint32(i+1), m)
	}
	got, seqs, err := DecodeAll(wire)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range got {
		if seqs[i] != uint32(i+1) {
			t.Errorf("seq[%d] = %d", i, seqs[i])
		}
		if got[i].Type() != msgs[i].Type() {
			t.Errorf("type[%d] = %v, want %v", i, got[i].Type(), msgs[i].Type())
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(nil, 1, &Fill{Rect: Rect{W: 1, H: 1}, Color: 0})
	cases := []struct {
		name string
		wire []byte
	}{
		{"short header", good[:4]},
		{"bad magic", append([]byte{0, 0}, good[2:]...)},
		{"bad version", mut(good, 2, 99)},
		{"bad type", mut(good, 3, 200)},
		{"truncated body", good[:len(good)-1]},
	}
	for _, c := range cases {
		if _, _, _, err := Decode(c.wire); err == nil {
			t.Errorf("%s: decode succeeded, want error", c.name)
		}
	}
}

func mut(b []byte, i int, v byte) []byte {
	c := append([]byte(nil), b...)
	c[i] = v
	return c
}

func TestSetUnmarshalValidates(t *testing.T) {
	// SET with mismatched pixel count must fail.
	msg := &Set{Rect: Rect{W: 2, H: 2}, Pixels: []Pixel{1, 2, 3, 4}}
	wire := Encode(nil, 1, msg)
	// Truncate one pixel (3 bytes).
	wire = wire[:len(wire)-3]
	// Fix the body length header so only the pixel check can complain.
	wire[11] -= 3
	if _, _, _, err := Decode(wire); err == nil {
		t.Error("SET with short pixels decoded successfully")
	}
}

// Property: any random bytes either fail to decode or decode to a message
// that re-encodes to the identical prefix (no crashes, no corruption).
func TestDecodeFuzzProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		seq, msg, used, err := Decode(buf)
		if err != nil {
			return true
		}
		re := Encode(nil, seq, msg)
		if len(re) != used {
			return false
		}
		for i := range re {
			if re[i] != buf[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i < 5000; i++ {
		if !f() {
			t.Fatal("decode/re-encode mismatch on random input")
		}
	}
}

func TestBitmapBitAt(t *testing.T) {
	m := &Bitmap{Rect: Rect{W: 9, H: 2}}
	m.Bits = make([]byte, BitmapRowBytes(9)*2)
	m.Bits[0] = 0x80 // (0,0)
	m.Bits[1] = 0x80 // (8,0)
	m.Bits[2] = 0x01 // (7,1)
	if !m.BitAt(0, 0) || !m.BitAt(8, 0) || !m.BitAt(7, 1) {
		t.Error("expected bits not set")
	}
	if m.BitAt(1, 0) || m.BitAt(0, 1) {
		t.Error("unexpected bits set")
	}
}

func TestCSCSPayloadLen(t *testing.T) {
	// 16x16 at 12 bpp: Y 8 bits * 256 px = 256 bytes; chroma 8x8 blocks *
	// 2 planes * 8 bits = 128 bytes.
	if got := CSCS12.PayloadLen(16, 16); got != 256+128 {
		t.Errorf("CSCS12 16x16 payload = %d, want 384", got)
	}
	// Odd sizes round chroma up.
	if got := CSCS12.PayloadLen(3, 3); got != (9*8+7)/8+(2*2*2*8+7)/8 {
		t.Errorf("CSCS12 3x3 payload = %d", got)
	}
	// Bits per pixel is as advertised for large even frames.
	for _, f := range []CSCSFormat{CSCS16, CSCS12, CSCS8, CSCS6, CSCS5} {
		got := float64(f.PayloadLen(640, 480)*8) / (640 * 480)
		if diff := got - f.BitsPerPixel(); diff > 0.01 || diff < -0.01 {
			t.Errorf("%v: %f bits/px, want %f", f, got, f.BitsPerPixel())
		}
	}
	if CSCSFormat(99).Valid() {
		t.Error("format 99 reported valid")
	}
}

func TestSequencer(t *testing.T) {
	var s Sequencer
	if s.Current() != 0 {
		t.Error("fresh sequencer not at 0")
	}
	if s.Next() != 1 || s.Next() != 2 || s.Current() != 2 {
		t.Error("sequence not monotonic from 1")
	}
}

func TestGapTrackerInOrder(t *testing.T) {
	g := NewGapTracker(4)
	for seq := uint32(1); seq <= 10; seq++ {
		if nacks := g.Observe(seq); len(nacks) != 0 {
			t.Fatalf("in-order delivery produced nacks: %v", nacks)
		}
	}
	if g.Highest() != 10 {
		t.Errorf("highest = %d", g.Highest())
	}
}

func TestGapTrackerReorder(t *testing.T) {
	g := NewGapTracker(4)
	g.Observe(1)
	// 3 before 2, within the window: no nack.
	if nacks := g.Observe(3); len(nacks) != 0 {
		t.Fatalf("small reorder nacked: %v", nacks)
	}
	if nacks := g.Observe(2); len(nacks) != 0 {
		t.Fatalf("fill-in nacked: %v", nacks)
	}
	if g.Highest() != 3 {
		t.Errorf("highest = %d, want 3", g.Highest())
	}
}

func TestGapTrackerLoss(t *testing.T) {
	g := NewGapTracker(2)
	g.Observe(1)
	// Jump far beyond the window: 2..9 lost.
	nacks := g.Observe(10)
	if len(nacks) != 1 || nacks[0].From != 2 || nacks[0].To != 9 {
		t.Fatalf("nacks = %v, want [{2 9}]", nacks)
	}
	if g.Highest() != 10 {
		t.Errorf("highest = %d, want 10", g.Highest())
	}
}

func TestGapTrackerPartialLoss(t *testing.T) {
	g := NewGapTracker(2)
	g.Observe(1)
	g.Observe(3) // pending
	nacks := g.Observe(10)
	// 2 and 4..9 are missing; 3 arrived.
	if len(nacks) != 2 {
		t.Fatalf("nacks = %v, want two ranges", nacks)
	}
	if nacks[0].From != 2 || nacks[0].To != 2 || nacks[1].From != 4 || nacks[1].To != 9 {
		t.Fatalf("nacks = %v, want [{2 2} {4 9}]", nacks)
	}
}

func TestGapTrackerDuplicates(t *testing.T) {
	g := NewGapTracker(4)
	g.Observe(1)
	g.Observe(2)
	if nacks := g.Observe(1); len(nacks) != 0 {
		t.Error("duplicate produced nacks")
	}
	if g.Highest() != 2 {
		t.Errorf("highest = %d", g.Highest())
	}
}

// TestGapTrackerSettle: Settle declares what Observe would once delivery ran
// past the window — every hole below the highest arrival — and leaves a
// tracker with no holes, or an unprimed one, alone.
func TestGapTrackerSettle(t *testing.T) {
	g := NewGapTracker(64)
	if nacks := g.Settle(); nacks != nil {
		t.Errorf("an unprimed tracker settled %v", nacks)
	}
	g.Observe(1)
	g.Observe(2)
	if nacks := g.Settle(); nacks != nil || g.Highest() != 2 {
		t.Errorf("a tracker with no holes settled %v at %d", nacks, g.Highest())
	}
	// A lost tail repainted under fresh numbers: 3 and 4 lost, 5 arrived.
	g.Observe(5)
	if nacks := g.Settle(); !reflect.DeepEqual(nacks, []Nack{{From: 3, To: 4}}) || g.Highest() != 5 {
		t.Errorf("settled %v at %d, want [{3 4}] at 5", nacks, g.Highest())
	}
	// Two holes around an arrival, then a late one the settle gave up on.
	g.Observe(7)
	g.Observe(9)
	if nacks := g.Settle(); !reflect.DeepEqual(nacks, []Nack{{From: 6, To: 6}, {From: 8, To: 8}}) || g.Highest() != 9 {
		t.Errorf("settled %v at %d, want [{6 6} {8 8}] at 9", nacks, g.Highest())
	}
	if nacks := g.Observe(8); nacks != nil || g.Highest() != 9 {
		t.Errorf("a late arrival below the settled mark drew %v at %d", nacks, g.Highest())
	}
	if nacks := g.Settle(); nacks != nil {
		t.Errorf("a second settle declared %v", nacks)
	}
}
