package hostmon

import (
	"testing"
	"time"

	"slim/internal/obs"
)

// BenchmarkSampleNow is the steady-state sample path: one runtime/metrics
// read, series publication, ring append, stall detection. Alloc-guard
// pins it at 0 allocs/op.
func BenchmarkSampleNow(b *testing.B) {
	clk := obs.NewClock(obs.DomainSim)
	m := New(clk, Config{Interval: 100 * time.Millisecond}).
		Instrument(obs.NewRegistry(obs.DomainWall))
	var now time.Duration
	for i := 0; i < 3; i++ { // size the metrics buffers
		now += 100 * time.Millisecond
		clk.Set(now)
		m.SampleNow()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 100 * time.Millisecond
		clk.Set(now)
		m.SampleNow()
	}
}

// BenchmarkWindows is the flight recorder's host-evidence fetch — the
// per-breach cost of HOST attribution.
func BenchmarkWindows(b *testing.B) {
	clk := obs.NewClock(obs.DomainSim)
	m := New(clk, Config{Interval: 100 * time.Millisecond})
	m.SampleNow()
	var now time.Duration
	for i := 0; i < 40; i++ { // populate some stall windows
		now += 300 * time.Millisecond
		clk.Set(now)
		m.SampleNow()
		now += 100 * time.Millisecond
		clk.Set(now)
		m.SampleNow()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Windows(now)
	}
}
