package core

import (
	"math/rand"
	"slices"
	"testing"

	"slim/internal/fb"
	"slim/internal/protocol"
)

// §2.2: "All SLIM protocol messages contain unique identifiers and can be
// replayed with no ill effects." These properties pin that claim: a
// console that applies duplicated or locally-reordered datagrams (within
// an update, order matters only between overlapping commands; replay
// always re-delivers in order) converges to the server's screen.

// TestDuplicateDeliveryIsIdempotent applies every datagram 1–3 times, in
// order, and requires pixel equality with the server.
func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 10; round++ {
		e := NewEncoder(128, 128)
		screen := fb.New(128, 128)
		for op := 0; op < 20; op++ {
			dgs, err := e.Encode(randomNonCopyOp(rng, 128, 128))
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range dgs {
				times := 1 + rng.Intn(3)
				for k := 0; k < times; k++ {
					_, msg, _, err := protocol.Decode(d.Wire)
					if err != nil {
						t.Fatal(err)
					}
					if err := screen.Apply(msg); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if !screen.Equal(e.FB) {
			t.Fatalf("round %d: duplicated delivery diverged", round)
		}
	}
}

// TestCopyIsNotIdempotentAlone documents why recovery replays *ranges*:
// COPY reads the frame buffer, so replaying a COPY twice after the source
// changed is not a no-op — but replaying the full ordered range is safe.
func TestCopyIsNotIdempotentAlone(t *testing.T) {
	e := NewEncoder(32, 32)
	screen := fb.New(32, 32)
	ops := []Op{
		FillOp{Rect: protocol.Rect{W: 8, H: 8}, Color: 1},
		ScrollOp{Rect: protocol.Rect{W: 8, H: 8}, DX: 8},
		FillOp{Rect: protocol.Rect{W: 8, H: 8}, Color: 2},
	}
	var all [][]byte // copies: a wire lives only until the next Encode
	for _, op := range ops {
		dgs, err := e.Encode(op)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dgs {
			all = append(all, slices.Clone(d.Wire))
		}
	}
	// Ordered replay of the full range, twice, still converges because
	// each pass recreates the same sequence of states... except COPY reads
	// state written *after* it on the first pass. Verify the failure mode
	// exists, then verify Repaint-based recovery always works.
	for pass := 0; pass < 2; pass++ {
		for _, wire := range all {
			_, msg, _, _ := protocol.Decode(wire)
			if err := screen.Apply(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if screen.Equal(e.FB) {
		t.Log("double range replay happened to converge (content-dependent)")
	}
	// The guaranteed-safe recovery: repaint from authoritative state.
	screen2 := fb.New(32, 32)
	for _, d := range e.RepaintAll() {
		_, msg, _, _ := protocol.Decode(d.Wire)
		if err := screen2.Apply(msg); err != nil {
			t.Fatal(err)
		}
	}
	if !screen2.Equal(e.FB) {
		t.Fatal("repaint recovery diverged")
	}
}

// TestNonOverlappingReorderCommutes shuffles datagrams whose rectangles do
// not overlap (the common case inside one large update, which is tiled
// into disjoint chunks) and requires convergence.
func TestNonOverlappingReorderCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 20; round++ {
		e := NewEncoder(256, 256)
		// One big noisy image op: the encoder tiles it into disjoint SETs.
		r := protocol.Rect{X: 3, Y: 5, W: 200, H: 120}
		pix := make([]protocol.Pixel, r.Pixels())
		for i := range pix {
			pix[i] = protocol.Pixel(rng.Uint32() & 0xffffff)
		}
		dgs, err := e.Encode(ImageOp{Rect: r, Pixels: pix})
		if err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(dgs), func(i, j int) { dgs[i], dgs[j] = dgs[j], dgs[i] })
		screen := fb.New(256, 256)
		for _, d := range dgs {
			_, msg, _, _ := protocol.Decode(d.Wire)
			if err := screen.Apply(msg); err != nil {
				t.Fatal(err)
			}
		}
		if !screen.Equal(e.FB) {
			t.Fatalf("round %d: disjoint-tile reorder diverged", round)
		}
	}
}

// randomNonCopyOp avoids ScrollOp: COPY is the single state-reading
// command, excluded from the duplicate-delivery property (see above).
func randomNonCopyOp(rng *rand.Rand, w, h int) Op {
	for {
		op := randomOp(rng, w, h)
		if _, isCopy := op.(ScrollOp); !isCopy {
			return op
		}
	}
}
