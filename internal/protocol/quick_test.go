package protocol

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// Property-based tests (testing/quick) on the wire-format invariants.

// genRect produces a valid random rectangle bounded to keep payloads small.
func genRect(rng *rand.Rand) Rect {
	return Rect{
		X: rng.Intn(512), Y: rng.Intn(512),
		W: 1 + rng.Intn(48), H: 1 + rng.Intn(48),
	}
}

// genMessage builds a random valid message of a random type.
func genMessage(rng *rand.Rand) Message {
	switch rng.Intn(7) {
	case 0:
		r := genRect(rng)
		pix := make([]Pixel, r.Pixels())
		for i := range pix {
			pix[i] = Pixel(rng.Uint32() & 0xffffff)
		}
		return &Set{Rect: r, Pixels: pix}
	case 1:
		r := genRect(rng)
		bits := make([]byte, BitmapRowBytes(r.W)*r.H)
		rng.Read(bits)
		return &Bitmap{Rect: r, Fg: Pixel(rng.Uint32() & 0xffffff), Bg: Pixel(rng.Uint32() & 0xffffff), Bits: bits}
	case 2:
		return &Fill{Rect: genRect(rng), Color: Pixel(rng.Uint32() & 0xffffff)}
	case 3:
		return &Copy{Rect: genRect(rng), DstX: rng.Intn(512), DstY: rng.Intn(512)}
	case 4:
		r := genRect(rng)
		f := CSCSFormat(rng.Intn(int(numCSCSFormats)))
		data := make([]byte, f.PayloadLen(r.W, r.H))
		rng.Read(data)
		return &CSCS{Src: r, Dst: genRect(rng), Format: f, Data: data}
	case 5:
		return &KeyEvent{Code: uint16(rng.Uint32()), Down: rng.Intn(2) == 0}
	default:
		return &PointerEvent{X: uint16(rng.Uint32()), Y: uint16(rng.Uint32()), Buttons: uint8(rng.Uint32())}
	}
}

// Property: Encode/Decode is the identity on all valid random messages.
func TestQuickRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 2000; i++ {
		msg := genMessage(rng)
		seq := rng.Uint32()
		wire := Encode(nil, seq, msg)
		gotSeq, got, n, err := Decode(wire)
		if err != nil {
			t.Fatalf("msg %v: %v", msg.Type(), err)
		}
		if gotSeq != seq || n != len(wire) {
			t.Fatalf("framing mismatch for %v", msg.Type())
		}
		if !reflect.DeepEqual(msg, got) {
			t.Fatalf("roundtrip mismatch for %v", msg.Type())
		}
	}
}

// Property: batch framing is equivalent to plain framing for any random
// message set with in-window sequence numbers, and strictly smaller on the
// wire for ≥2 messages.
func TestQuickBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(8)
		msgs := make([]Message, n)
		seqs := make([]uint32, n)
		base := rng.Uint32() / 2
		plainBytes := 0
		for i := range msgs {
			msgs[i] = genMessage(rng)
			seqs[i] = base + uint32(i)
			plainBytes += WireSize(msgs[i])
		}
		wire, err := EncodeBatch(nil, seqs, msgs)
		if err != nil {
			t.Fatal(err)
		}
		if n >= 2 && len(wire) >= plainBytes {
			t.Fatalf("batch of %d not smaller: %d vs %d", n, len(wire), plainBytes)
		}
		gotSeqs, gotMsgs, err := DecodeBatch(wire)
		if err != nil {
			t.Fatal(err)
		}
		for i := range msgs {
			if gotSeqs[i] != seqs[i] || !reflect.DeepEqual(gotMsgs[i], msgs[i]) {
				t.Fatalf("round %d: message %d mismatch", round, i)
			}
		}
	}
}

// Property: a GapTracker observing a random permutation of 1..n (window
// >= n) converges to highest = n with no spurious nacks outstanding.
func TestQuickGapTrackerPermutation(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%64) + 1
		rng := rand.New(rand.NewSource(seed))
		order := rng.Perm(n)
		g := NewGapTracker(uint32(n) + 1)
		for _, idx := range order {
			g.Observe(uint32(idx) + 1)
		}
		return g.Highest() == uint32(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a tracker primed at 0 that sees a random subset of 1..n arrive
// in random order (window >= n, so Observe declares nothing) settles by
// NACKing exactly the dropped numbers below the highest arrival, and
// reports that arrival.
func TestQuickGapTrackerSettle(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%64) + 1
		rng := rand.New(rand.NewSource(seed))
		g := NewGapTracker(uint32(n) + 1)
		g.Observe(0)
		var top uint32
		dropped := make(map[uint32]bool)
		for _, idx := range rng.Perm(n) {
			seq := uint32(idx) + 1
			if rng.Intn(3) == 0 {
				dropped[seq] = true
				continue
			}
			top = max(top, seq)
			if g.Observe(seq) != nil {
				return false
			}
		}
		for _, nack := range g.Settle() {
			for seq := nack.From; seq <= nack.To; seq++ {
				if !dropped[seq] || seq >= top {
					return false
				}
				delete(dropped, seq)
			}
		}
		for seq := range dropped {
			if seq < top {
				return false
			}
		}
		return g.Highest() == top
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: in-order delivery with arbitrary duplication never produces a
// nack.
func TestQuickGapTrackerDuplicates(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%50) + 1
		rng := rand.New(rand.NewSource(seed))
		g := NewGapTracker(4)
		for s := 1; s <= n; s++ {
			for k := 0; k < 1+rng.Intn(3); k++ {
				if nacks := g.Observe(uint32(s)); len(nacks) != 0 {
					return false
				}
			}
		}
		return g.Highest() == uint32(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
