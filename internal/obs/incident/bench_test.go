package incident

import (
	"testing"
	"time"
)

// BenchmarkTriggerRateLimited is the steady-state cost an armed engine
// adds while bundles are suppressed: after the first bundle lands, every
// further Trigger must bounce off the MinGap gate without touching the
// disk. This is the per-transition overhead during a sustained breach.
func BenchmarkTriggerRateLimited(b *testing.B) {
	e, _, _ := newTestEngine(b, Config{
		MinGap:     time.Hour,
		CPUProfile: time.Millisecond,
	})
	if _, err := e.Trigger("bench-warmup", "manual"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Trigger("bench", "manual"); err != ErrRateLimited {
			b.Fatalf("want ErrRateLimited, got %v", err)
		}
	}
}

// BenchmarkList is the /debug/incident GET path and `slimtrace explain`'s
// scan of a bundle directory: read every bundle's manifest under it.
func BenchmarkList(b *testing.B) {
	e, _, _ := newTestEngine(b, Config{
		MinGap:     time.Millisecond,
		MaxBundles: 8,
		CPUProfile: time.Millisecond,
	})
	for i := 0; i < 4; i++ {
		if _, err := e.Trigger("bench", "manual"); err != nil {
			b.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // distinct bundle timestamps
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundles, err := List(e.cfg.Dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(bundles) == 0 {
			b.Fatal("no bundles")
		}
	}
}
