package hostmon

import (
	"math"
	"runtime/metrics"
	"testing"
	"time"

	"slim/internal/obs"
)

// newTestMonitor builds an instrumented monitor on a virtual clock with
// tight thresholds.
func newTestMonitor(t *testing.T) (*Monitor, *obs.Clock, *obs.Registry) {
	t.Helper()
	clk := obs.NewClock(obs.DomainSim)
	reg := obs.NewRegistry(obs.DomainWall)
	m := New(clk, Config{
		Interval:          100 * time.Millisecond,
		RingSize:          8,
		GCPauseThreshold:  10 * time.Millisecond,
		CPUStallThreshold: 10 * time.Millisecond,
		WindowRetention:   time.Minute,
		MaxWindows:        4,
	}).Instrument(reg)
	return m, clk, reg
}

// TestSampleAndSeries: one tick populates the slim_runtime_* series and
// the ring.
func TestSampleAndSeries(t *testing.T) {
	m, clk, reg := newTestMonitor(t)
	clk.Set(100 * time.Millisecond)
	s := m.SampleNow()
	if s.HeapBytes == 0 || s.Goroutines == 0 {
		t.Fatalf("implausible sample: %+v", s)
	}
	snap := reg.Snapshot()
	if snap.Gauges["slim_runtime_heap_bytes"] == 0 {
		t.Error("heap gauge not published")
	}
	if snap.Gauges["slim_runtime_goroutines"] == 0 {
		t.Error("goroutine gauge not published")
	}
	if snap.Counters["slim_runtime_samples_total"] != 1 {
		t.Error("sample counter not bumped")
	}
	clk.Set(200 * time.Millisecond)
	m.SampleNow()
	ring := m.Ring()
	if len(ring) != 2 || ring[0].T != 100*time.Millisecond || ring[1].T != 200*time.Millisecond {
		t.Fatalf("ring = %+v", ring)
	}
	if last := m.Last(); last.T != 200*time.Millisecond {
		t.Errorf("last sample T = %v", last.T)
	}
}

// TestRingWraps: the ring keeps only the newest RingSize samples.
func TestRingWraps(t *testing.T) {
	m, clk, _ := newTestMonitor(t)
	for i := 1; i <= 20; i++ {
		clk.Set(time.Duration(i) * 100 * time.Millisecond)
		m.SampleNow()
	}
	ring := m.Ring()
	if len(ring) != 8 {
		t.Fatalf("ring len = %d, want 8", len(ring))
	}
	if ring[0].T != 1300*time.Millisecond || ring[7].T != 2000*time.Millisecond {
		t.Fatalf("ring window = [%v, %v]", ring[0].T, ring[7].T)
	}
}

// TestTickLagWindow: a tick that fires late records a "cpu" stall window
// covering the gap — the sampler's own starvation as evidence.
func TestTickLagWindow(t *testing.T) {
	m, clk, reg := newTestMonitor(t)
	clk.Set(100 * time.Millisecond)
	m.SampleNow() // warm-up: histogram deltas and lag are unreliable
	clk.Set(200 * time.Millisecond)
	m.SampleNow() // on schedule: no lag
	wins := m.Windows(clk.Now())
	if len(wins) != 0 {
		t.Fatalf("windows after on-time ticks: %+v", wins)
	}
	// 150 ms late: lag 150ms >= 10ms threshold.
	clk.Set(450 * time.Millisecond)
	m.SampleNow()
	wins = m.Windows(clk.Now())
	if len(wins) != 1 {
		t.Fatalf("windows = %+v, want 1", wins)
	}
	w := wins[0]
	if w.Kind != "cpu" || w.Start != 200*time.Millisecond || w.End != 450*time.Millisecond {
		t.Fatalf("window = %+v", w)
	}
	if w.WorstNs < int64(150*time.Millisecond) {
		t.Errorf("worst = %v, want >= 150ms", time.Duration(w.WorstNs))
	}
	if got := reg.Snapshot().Counters[`slim_runtime_host_windows_total{kind="cpu"}`]; got != 1 {
		t.Errorf("cpu window counter = %d, want 1", got)
	}

	// A second late tick touching the first window merges instead of
	// appending.
	clk.Set(700 * time.Millisecond)
	m.SampleNow()
	wins = m.Windows(clk.Now())
	if len(wins) != 1 {
		t.Fatalf("merged windows = %+v, want 1", wins)
	}
	if wins[0].End != 700*time.Millisecond || wins[0].Start != 200*time.Millisecond {
		t.Fatalf("merged window = %+v", wins[0])
	}
}

// TestWindowRetention: Windows filters out stalls older than the
// retention horizon, and MaxWindows bounds the kept set.
func TestWindowRetention(t *testing.T) {
	m, clk, _ := newTestMonitor(t)
	clk.Set(100 * time.Millisecond)
	m.SampleNow()
	now := 200 * time.Millisecond
	// Ten disjoint stalls (interleave on-time ticks to break merging).
	for i := 0; i < 10; i++ {
		now += 300 * time.Millisecond // 200ms late → cpu window
		clk.Set(now)
		m.SampleNow()
		now += 100 * time.Millisecond // on schedule → closes the merge run
		clk.Set(now)
		m.SampleNow()
	}
	wins := m.Windows(clk.Now())
	if len(wins) != 4 {
		t.Fatalf("kept windows = %d, want MaxWindows=4", len(wins))
	}
	// An hour later every window is stale.
	if wins := m.Windows(clk.Now() + time.Hour); len(wins) != 0 {
		t.Fatalf("stale windows survived retention: %+v", wins)
	}
}

// TestHistDelta exercises the cumulative-histogram delta logic against
// hand-built runtime/metrics histograms.
func TestHistDelta(t *testing.T) {
	buckets := []float64{0, 0.001, 0.010, 0.100, 1.0}
	h := &metrics.Float64Histogram{
		Counts:  []uint64{5, 2, 0, 0},
		Buckets: buckets,
	}
	var prev []uint64
	if got := histDelta(h, &prev, false); got != 0 {
		t.Fatalf("warm-up delta = %v, want 0", got)
	}
	// One new count in bucket [10ms, 100ms): worst = 100ms upper edge.
	h.Counts = []uint64{5, 2, 1, 0}
	if got := histDelta(h, &prev, true); got != 100*time.Millisecond {
		t.Fatalf("delta = %v, want 100ms", got)
	}
	// No new counts → 0.
	if got := histDelta(h, &prev, true); got != 0 {
		t.Fatalf("idle delta = %v, want 0", got)
	}
	// +Inf upper edge falls back to the lower edge.
	hInf := &metrics.Float64Histogram{
		Counts:  []uint64{0, 1},
		Buckets: []float64{0, 0.050, math.Inf(1)},
	}
	var prev2 []uint64
	histDelta(hInf, &prev2, false)
	hInf.Counts = []uint64{0, 2}
	if got := histDelta(hInf, &prev2, true); got != 50*time.Millisecond {
		t.Fatalf("inf-bucket delta = %v, want 50ms", got)
	}
}

// TestZeroAllocSample pins the steady-state sample path: after warm-up
// (first reads size the runtime/metrics buffers), SampleNow allocates
// nothing — the budget alloc-guard enforces.
func TestZeroAllocSample(t *testing.T) {
	m, clk, _ := newTestMonitor(t)
	var now time.Duration
	tick := func() {
		now += 100 * time.Millisecond
		clk.Set(now)
		m.SampleNow()
	}
	tick()
	tick()
	tick()
	if n := testing.AllocsPerRun(100, tick); n != 0 {
		t.Errorf("SampleNow allocates %.1f/op, want 0", n)
	}
}

// TestStartClose: the sampling loop starts, samples, and shuts down
// without leaking its goroutine (Close waits for exit).
func TestStartClose(t *testing.T) {
	m := New(obs.Wall, Config{Interval: 5 * time.Millisecond}).Instrument(obs.NewRegistry(obs.DomainWall))
	m.Start()
	deadline := time.Now().Add(2 * time.Second)
	for len(m.Ring()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(m.Ring()) == 0 {
		t.Fatal("loop never sampled")
	}
	m.Close()
	m.Close() // idempotent
	n := len(m.Ring())
	time.Sleep(20 * time.Millisecond)
	if got := len(m.Ring()); got != n {
		t.Fatalf("loop still sampling after Close: %d -> %d", n, got)
	}
	// Restartable.
	m.Start()
	m.Close()
}

// TestDisabledTicks: a disabled monitor's loop keeps running but touches
// nothing.
func TestDisabledTicks(t *testing.T) {
	m := New(obs.Wall, Config{Interval: 5 * time.Millisecond})
	m.SetEnabled(false)
	m.Start()
	defer m.Close()
	time.Sleep(30 * time.Millisecond)
	if got := len(m.Ring()); got != 0 {
		t.Fatalf("disabled monitor sampled %d times", got)
	}
}
