package video

import (
	"slices"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/netsim"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

func TestMPEG2Source(t *testing.T) {
	src := NewMPEG2(1)
	w, h := src.Geometry()
	if w != 720 || h != 480 {
		t.Fatalf("geometry = %dx%d", w, h)
	}
	f := src.Next()
	if f.W != w || f.H != h || len(f.Pixels) != w*h {
		t.Fatal("frame geometry wrong")
	}
	cost := src.FrameCost()
	if cost < 40*time.Millisecond || cost > 56*time.Millisecond {
		t.Errorf("decode cost = %v", cost)
	}
	// Frames animate. Next redraws the source's one surface, so the first
	// frame is copied before the second is drawn.
	first := slices.Clone(f.Pixels)
	if g := src.Next(); slices.Equal(first, g.Pixels) {
		t.Error("consecutive frames identical")
	}
}

// TestSourceNextAllocatesNothing pins the Source contract's cost side:
// each stand-in redraws the surface it owns, so a frame after the first
// allocates nothing.
func TestSourceNextAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	for name, src := range map[string]Source{
		"mpeg2": NewMPEG2(1),
		"ntsc":  NewNTSC(1),
		"quake": NewQuake(320, 240, 1),
	} {
		src.Next()
		if allocs := testing.AllocsPerRun(5, func() { src.Next() }); allocs != 0 {
			t.Errorf("%s: Next allocates %.1f objects a frame, want 0", name, allocs)
		}
	}
}

func TestNTSCSource(t *testing.T) {
	src := NewNTSC(2)
	w, h := src.Geometry()
	if w != 640 || h != 240 {
		t.Fatalf("geometry = %dx%d", w, h)
	}
	src.Next()
	cost := src.FrameCost()
	if cost < NTSCDecodeCostLo || cost > NTSCDecodeCostHi {
		t.Errorf("decode cost = %v outside [%v, %v]", cost, NTSCDecodeCostLo, NTSCDecodeCostHi)
	}
}

func TestQuakeSource(t *testing.T) {
	q := NewQuake(640, 480, 3)
	idx := q.RenderIndexed()
	if len(idx) != 640*480 {
		t.Fatalf("indexed frame = %d", len(idx))
	}
	// Cost at 640x480: render (4–11ms) + translate (30ms).
	cost := q.FrameCost()
	if cost < 30*time.Millisecond || cost > 45*time.Millisecond {
		t.Errorf("frame cost = %v", cost)
	}
	if tx := q.TransmitCost(); tx != QuakeTransmitCost640 {
		t.Errorf("transmit cost = %v", tx)
	}
	// Quarter-res costs scale by pixel count.
	q2 := NewQuake(320, 240, 3)
	q2.RenderIndexed()
	if q2.FrameCost() >= cost/3 {
		t.Errorf("quarter-res cost %v not ~4x cheaper than %v", q2.FrameCost(), cost)
	}
	// Frames use a healthy slice of the palette.
	distinct := map[byte]bool{}
	for _, c := range idx {
		distinct[c] = true
	}
	if len(distinct) < 16 {
		t.Errorf("only %d distinct palette entries", len(distinct))
	}
	f := q.Next()
	if len(f.Pixels) != 640*480 {
		t.Error("translated frame wrong size")
	}
}

func TestPipelineServerBound(t *testing.T) {
	p := Pipeline{
		SrcW: 720, SrcH: 480, DstW: 720, DstH: 480,
		Format:         protocol.CSCS6,
		ServerPerFrame: 48 * time.Millisecond,
		Instances:      1, CPUs: 8,
		LinkBps: netsim.Rate100Mbps,
		Console: core.SunRay1Costs(), ConsoleVideoEfficiency: DefaultConsoleVideoEfficiency,
		TargetHz: 30,
	}
	r := p.Analyze()
	if r.Bottleneck != "server" {
		t.Errorf("bottleneck = %s", r.Bottleneck)
	}
	if r.AchievedHz < 18 || r.AchievedHz > 23 {
		t.Errorf("achieved = %f Hz, want ~20 (paper §7.1)", r.AchievedHz)
	}
	if r.Mbps < 35 || r.Mbps > 50 {
		t.Errorf("bandwidth = %f Mbps, want ~40", r.Mbps)
	}
	if r.String() == "" {
		t.Error("empty report string")
	}
}

func TestPipelineConsoleBound(t *testing.T) {
	p := Pipeline{
		SrcW: 320, SrcH: 240, DstW: 320, DstH: 240,
		Format:         protocol.CSCS5,
		ServerPerFrame: 8 * time.Millisecond, // parallel instances, cheap
		Instances:      4, CPUs: 8,
		LinkBps: netsim.Rate100Mbps,
		Console: core.SunRay1Costs(), ConsoleVideoEfficiency: DefaultConsoleVideoEfficiency,
	}
	r := p.Analyze()
	if r.Bottleneck != "console" {
		t.Errorf("bottleneck = %s (report %v)", r.Bottleneck, r)
	}
	if r.AchievedHz < 30 || r.AchievedHz > 45 {
		t.Errorf("achieved = %f Hz, want 37-40 band (§7.3)", r.AchievedHz)
	}
}

func TestPipelineLinkBound(t *testing.T) {
	p := Pipeline{
		SrcW: 640, SrcH: 480, DstW: 640, DstH: 480,
		Format:         protocol.CSCS16,
		ServerPerFrame: time.Millisecond,
		Instances:      1, CPUs: 8,
		LinkBps: netsim.Rate10Mbps, // §7: "a 10Mbps IF would not be adequate"
	}
	r := p.Analyze()
	if r.Bottleneck != "link" {
		t.Errorf("bottleneck = %s", r.Bottleneck)
	}
	if r.AchievedHz > 5 {
		t.Errorf("10Mbps carried %f Hz of full video", r.AchievedHz)
	}
}

func TestPipelineSourceBound(t *testing.T) {
	p := Pipeline{
		SrcW: 320, SrcH: 240, DstW: 320, DstH: 240,
		Format:         protocol.CSCS5,
		ServerPerFrame: time.Millisecond,
		Instances:      1, CPUs: 8,
		LinkBps:  netsim.RateGbps,
		TargetHz: 30,
	}
	r := p.Analyze()
	if r.Bottleneck != "source" || r.AchievedHz != 30 {
		t.Errorf("report = %v", r)
	}
}

func TestFrameWireBytes(t *testing.T) {
	p := Pipeline{SrcW: 720, SrcH: 480, Format: protocol.CSCS6}
	wire := p.FrameWireBytes()
	payload := protocol.CSCS6.PayloadLen(720, 480)
	if wire <= payload {
		t.Error("no per-strip overhead counted")
	}
	if wire > payload*11/10 {
		t.Errorf("overhead above 10%%: %d vs %d", wire, payload)
	}
}

func TestStreamEndToEnd(t *testing.T) {
	src := NewQuake(160, 120, 5)
	enc := core.NewEncoder(320, 240)
	screen := fb.New(320, 240)
	dst := protocol.Rect{X: 0, Y: 0, W: 320, H: 240} // 2x console scaling
	hz, wire, err := Stream(src, enc, screen, dst, protocol.CSCS5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if hz <= 0 || wire <= 0 {
		t.Fatalf("hz=%f wire=%d", hz, wire)
	}
	// The console screen must approximate the encoder's authoritative FB
	// (both went through the same lossy CSCS, so they are identical).
	if !screen.Equal(enc.FB) {
		t.Error("console and server diverged on video path")
	}
	// And something must be on screen.
	lit := 0
	for _, p := range screen.Pix {
		if p != 0 {
			lit++
		}
	}
	if lit < 320*240/2 {
		t.Errorf("only %d pixels lit", lit)
	}
	// 5bpp wire cost ≈ 5/24 of raw RGB.
	perFrame := float64(wire) / 4
	raw := float64(160 * 120 * 3)
	if ratio := perFrame / raw; ratio > 0.35 {
		t.Errorf("wire/raw = %f, want ≈ 5/24", ratio)
	}
}
