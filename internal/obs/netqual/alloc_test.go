package netqual

import (
	"testing"

	"slim/internal/obs"
	"slim/internal/raceflag"
)

// The race detector's instrumentation allocates, so the hard budgets skip
// under it (make alloc-guard runs these without -race).
var allocGuard = func(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation budgets skip under the race detector")
	}
}

// TestZeroAllocDisabled pins the disabled path: with estimation off,
// every observe call is one atomic load and nothing else.
func TestZeroAllocDisabled(t *testing.T) {
	allocGuard(t)
	tr := New(obs.Wall)
	s := tr.Session(1, "alice")
	if n := testing.AllocsPerRun(1000, func() {
		s.OnSend(1, 1000, false)
		s.OnStatus(1, 0)
		s.OnNack(2, 2)
		s.OnProbe()
		s.OnGrant()
	}); n != 0 {
		t.Errorf("disabled observe path allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocEnabled pins the armed observe path: atomics and fixed
// arrays only, even with the registry gauges wired.
func TestZeroAllocEnabled(t *testing.T) {
	allocGuard(t)
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.Wall).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(1, "alice")

	var seq uint32
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		s.OnSend(seq, 1000, false)
		s.OnStatus(seq, 0)
	}); n != 0 {
		t.Errorf("enabled send/status path allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		seq += 2
		s.OnNack(seq-1, seq-1)
		s.OnProbe()
		s.OnGrant()
	}); n != 0 {
		t.Errorf("enabled nack/grant path allocates %.1f/op, want 0", n)
	}
}

// BenchmarkObserveStatus measures the armed STATUS ingest (ack walk, RTT
// fold, jitter, window accounting, gauge publish).
func BenchmarkObserveStatus(b *testing.B) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.Wall).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(1, "alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i + 1)
		s.OnSend(seq, 1000, false)
		s.OnStatus(seq, 0)
	}
}

// BenchmarkObserveSendDisabled measures the disarmed fast path.
func BenchmarkObserveSendDisabled(b *testing.B) {
	tr := New(obs.Wall)
	s := tr.Session(1, "alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnSend(uint32(i), 1000, false)
	}
}

// BenchmarkObserveNack measures the armed NACK ingest.
func BenchmarkObserveNack(b *testing.B) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.Wall).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(1, "alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i + 1)
		s.OnNack(seq, seq)
	}
}
