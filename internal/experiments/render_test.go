package experiments

import (
	"strings"
	"testing"
	"time"

	"slim/internal/workload"
)

// TestTable4EndToEnd runs the stand-alone benchmarks around a host
// response time; cmd/slimbench measures that one over the shipped UDP
// endpoint and checks it there (TestHostRTT).
func TestTable4EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timing benchmark")
	}
	r := Table4(420*time.Microsecond, 20*time.Millisecond)
	// The hardware-model RTT reproduces the paper's sub-millisecond claim.
	if r.ModelRTT <= 0 || r.ModelRTT > time.Millisecond {
		t.Errorf("model RTT = %v, want sub-millisecond (paper: 550µs)", r.ModelRTT)
	}
	// Dropping transmission improves the composite (Table 4's finding).
	if r.XmarkRatio < 1.1 {
		t.Errorf("no-IF/with-IF ratio = %.2f, want > 1.1 (paper: 1.96)", r.XmarkRatio)
	}
	out := RenderTable4(r)
	if !strings.Contains(out, "550µs") || !strings.Contains(out, "420µs") || !strings.Contains(out, "x11perf") {
		t.Error("render incomplete")
	}
}

func TestPlotRendering(t *testing.T) {
	series := Figure2(testCorpus)
	out := PlotCDFFigure(series, "test plot", true, func(x float64) string { return "x" })
	if !strings.Contains(out, "1=photoshop") || !strings.Contains(out, "|") {
		t.Errorf("plot missing legend/frame:\n%s", out)
	}
	if len(strings.Split(out, "\n")) < 16 {
		t.Error("plot too short")
	}
	// Degenerate input doesn't crash.
	if got := PlotCDFFigure(nil, "empty", false, func(float64) string { return "" }); !strings.Contains(got, "no data") {
		t.Errorf("empty plot = %q", got)
	}

	sweep := Figure9(testCorpus, workload.PIM, []int{1, 8}, 5*time.Second)
	ps := PlotSharing([]SharingResult{sweep}, "sweep", "avg added")
	if !strings.Contains(ps, "users") {
		t.Error("sharing plot missing axis")
	}
	ds := PlotDelaySeries(Figure6(testCorpus))
	if !strings.Contains(ds, "a=10Mbps") {
		t.Error("delay plot missing legend")
	}
}

func TestRenderVNCAndLowBW(t *testing.T) {
	v, err := CompareVNC(workload.PIM, 4, 1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderVNCComparison([]VNCComparison{v}); !strings.Contains(out, "pull") {
		t.Error("vnc render incomplete")
	}
	l, err := LowBandwidth(workload.PIM, 128e3, 1, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderLowBandwidth([]LowBWResult{l}); !strings.Contains(out, "batched") {
		t.Error("lowbw render incomplete")
	}
	m, err := MixedLoad()
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderMixedLoad(m); !strings.Contains(out, "grant") {
		t.Error("mixedload render incomplete")
	}
	q := QoSAblation(testCorpus, workload.PIM, []int{4}, 5*time.Second)
	if out := RenderQoS(q); !strings.Contains(out, "fair-share") {
		t.Error("qos render incomplete")
	}
}
