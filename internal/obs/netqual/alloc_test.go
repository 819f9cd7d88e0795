package netqual

import (
	"testing"
	"time"

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
	tr := New(obs.DomainWall, DefaultConfig())
	s := tr.Session(1, "alice")
	if n := testing.AllocsPerRun(1000, func() {
		s.OnSend(time.Millisecond, 1, 1000, false)
		s.OnStatus(2*time.Millisecond, 1, 0)
		s.OnNack(3*time.Millisecond, 2, 2)
		s.OnProbe(4 * time.Millisecond)
		s.OnGrant(5 * time.Millisecond)
	}); n != 0 {
		t.Errorf("disabled observe path allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocEnabled pins the armed observe path: atomics and fixed
// arrays only, even with the registry gauges wired.
func TestZeroAllocEnabled(t *testing.T) {
	allocGuard(t)
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.DomainWall, DefaultConfig()).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(1, "alice")

	var seq uint32
	var now time.Duration
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		now += time.Millisecond
		s.OnSend(now, seq, 1000, false)
		s.OnStatus(now+500*time.Microsecond, seq, 0)
	}); n != 0 {
		t.Errorf("enabled send/status path allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		seq += 2
		now += time.Millisecond
		s.OnNack(now, seq-1, seq-1)
		s.OnProbe(now)
		s.OnGrant(now + time.Millisecond)
	}); n != 0 {
		t.Errorf("enabled nack/grant path allocates %.1f/op, want 0", n)
	}
}

// BenchmarkObserveStatus measures the armed STATUS ingest (ack walk, RTT
// fold, jitter, window accounting, gauge publish).
func BenchmarkObserveStatus(b *testing.B) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.DomainWall, DefaultConfig()).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(1, "alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i + 1)
		now := time.Duration(i) * time.Millisecond
		s.OnSend(now, seq, 1000, false)
		s.OnStatus(now+500*time.Microsecond, seq, 0)
	}
}

// BenchmarkObserveSendDisabled measures the disarmed fast path.
func BenchmarkObserveSendDisabled(b *testing.B) {
	tr := New(obs.DomainWall, DefaultConfig())
	s := tr.Session(1, "alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.OnSend(time.Duration(i), uint32(i), 1000, false)
	}
}

// BenchmarkObserveNack measures the armed NACK ingest.
func BenchmarkObserveNack(b *testing.B) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.DomainWall, DefaultConfig()).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(1, "alice")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint32(i + 1)
		s.OnNack(time.Duration(i)*time.Millisecond, seq, seq)
	}
}
