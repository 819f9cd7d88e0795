package server

import (
	"fmt"
	"testing"

	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

// blankAttach builds a server and returns one blank first attach of a
// w×h console — Hello with card — and the Terminate that ends it, ready to
// repeat: gen-2 or gen-1, governed under flow.Config{} or not.
func blankAttach(tb testing.TB, tr Transport, w, h int, gen2, governed bool) func() {
	opts := []Option{WithTelemetry(telemetry.New(obs.DomainWall)), WithCodec2()}
	if governed {
		opts = append(opts, WithFlowControl(flow.Config{}))
	}
	s := newTestServer(tr, opts...)
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
// cost, not what its pixels would, so even a governed first attach sends
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
		blankAttach(t, tr, c.w, c.h, c.gen2, true)()
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

// TestPacedAttachAllocs: a governed blank gen-2 attach allocates at most
// 16 times more than an ungoverned one; pacing a debt that fits one call
// costs no more than paying it.
func TestPacedAttachAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	ungoverned := testing.AllocsPerRun(20, blankAttach(t, discard{}, 640, 480, true, false))
	governed := testing.AllocsPerRun(20, blankAttach(t, discard{}, 640, 480, true, true))
	t.Logf("a blank 640×480 gen-2 attach and Terminate: %.0f allocations ungoverned, %.0f governed", ungoverned, governed)
	if governed > ungoverned+16 {
		t.Errorf("a governed attach made %.0f allocations, the ungoverned one %.0f; want at most 16 more", governed, ungoverned)
	}
}

// BenchmarkBlankAttach is one blank 640×480 first attach and its
// Terminate, gen-1 and gen-2, governed and not.
func BenchmarkBlankAttach(b *testing.B) {
	for _, gen2 := range []bool{false, true} {
		for _, governed := range []bool{false, true} {
			b.Run(fmt.Sprintf("gen2=%v/governed=%v", gen2, governed), func(b *testing.B) {
				attach := blankAttach(b, discard{}, 640, 480, gen2, governed)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					attach()
				}
			})
		}
	}
}
