package slo

import (
	"testing"
	"time"

	"slim/internal/obs"
)

// BenchmarkObserveDisabled is the bench-guard budget for the disabled
// path: one nil check plus one atomic load, 0 allocs/op.
func BenchmarkObserveDisabled(b *testing.B) {
	tr := New(obs.Wall, DefaultConfig())
	s := tr.Session(1, "bench")
	tr.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(obs.Wall.Now(), 200*time.Millisecond)
	}
}

// BenchmarkObserveEnabled prices the armed path: window slot updates,
// burn evaluation, and gauge publication per event.
func BenchmarkObserveEnabled(b *testing.B) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.Wall, DefaultConfig()).Instrument(reg)
	s := tr.Session(1, "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(obs.Wall.Now(), 10*time.Millisecond)
	}
}

// BenchmarkObserveEnabledParallel stresses the lock-free observe path the
// way a busy server does: many goroutines, one session.
func BenchmarkObserveEnabledParallel(b *testing.B) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.Wall, DefaultConfig()).Instrument(reg)
	s := tr.Session(1, "bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.Observe(obs.Wall.Now(), 10*time.Millisecond)
		}
	})
}

// BenchmarkStatus prices a /debug/slo evaluation with a realistic fleet.
func BenchmarkStatus(b *testing.B) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.Wall, DefaultConfig()).Instrument(reg)
	for i := uint32(1); i <= 25; i++ {
		s := tr.Session(i, "user")
		s.Observe(obs.Wall.Now(), 10*time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Status()
	}
}
