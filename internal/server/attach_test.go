package server

import (
	"fmt"
	"testing"

	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// blankAttach builds a server and returns one blank first attach of a
// w×h console — Hello with card — and the Terminate that ends it, ready to
// repeat: gen-2 or gen-1.
func blankAttach(tb testing.TB, tr Transport, w, h int, gen2 bool) func() {
	s := newTestServer(tr, WithTelemetry(telemetry.New(obs.DomainWall)))
	hi := hello(w, h, "card-alice")
	if gen2 {
		hi.Caps = protocol.CapCachePaint
	}
	return func() {
		if err := s.Handle("c1", hi, 0); err != nil {
			tb.Fatal(err)
		}
		if s.Owed("alice") != nil || s.FlowPending() {
			tb.Fatalf("a blank attach left %v owed", s.Owed("alice"))
		}
		if err := s.Terminate("alice"); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBlankAttachLeavesInOneCall: a blank screen costs what its commands
// cost, not what its pixels would, so even a paced first attach sends
// all of it within the attach call: one FILL per tile row on gen-2, one
// FILL on gen-1.
func TestBlankAttachLeavesInOneCall(t *testing.T) {
	for _, c := range []struct {
		w, h  int
		gen2  bool
		fills int
	}{
		{640, 480, true, 30}, {1280, 1024, true, 64},
		{640, 480, false, 1}, {1280, 1024, false, 1},
	} {
		tr := &wireLog{}
		blankAttach(t, tr, c.w, c.h, c.gen2)()
		fills, display := 0, 0
		for _, typ := range tr.types {
			if typ == protocol.TypeFill {
				fills++
			}
			if typ.IsDisplay() {
				display++
			}
		}
		if fills != c.fills || display != fills {
			t.Errorf("%d×%d gen-2 %v: the attach sent %d FILLs of %d display commands, want %d FILLs alone",
				c.w, c.h, c.gen2, fills, display, c.fills)
		}
	}
}

// TestPacedAttachAllocs: a blank gen-2 attach, paced through the
// session's bucket, allocates at most 116 times with its Terminate: 16
// more than the same attach made when it was sent unpaced (100), so
// pacing a debt that fits one call costs little more than paying it.
func TestPacedAttachAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	allocs := testing.AllocsPerRun(20, blankAttach(t, discard{}, 640, 480, true))
	t.Logf("a blank 640×480 gen-2 attach and Terminate: %.0f allocations", allocs)
	if allocs > 116 {
		t.Errorf("a paced attach made %.0f allocations; want at most 116", allocs)
	}
}

// BenchmarkBlankAttach is one blank 640×480 first attach and its
// Terminate, gen-1 and gen-2.
func BenchmarkBlankAttach(b *testing.B) {
	for _, gen2 := range []bool{false, true} {
		b.Run(fmt.Sprintf("gen2=%v", gen2), func(b *testing.B) {
			attach := blankAttach(b, discard{}, 640, 480, gen2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				attach()
			}
		})
	}
}
