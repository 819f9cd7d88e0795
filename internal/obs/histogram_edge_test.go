package obs

import (
	"fmt"
	"io"
	"math"
	"sync"
	"testing"
	"time"
)

// Quantile edge cases: the interpolation in quantileFromBuckets has three
// boundary regimes — no data, all data in one bucket, and ranks pinned to
// the ends — each of which must degrade gracefully rather than divide by
// zero or walk off the boundary table.

func TestQuantileEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty histogram Quantile(%v) = %v, want 0", q, got)
		}
	}
	s := h.Snapshot()
	if s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.Count != 0 {
		t.Errorf("empty snapshot = %+v, want zero percentiles", s)
	}
	var nilH *Histogram
	if got := nilH.Snapshot(); got.Count != 0 || got.P50 != 0 {
		t.Errorf("nil histogram snapshot = %+v", got)
	}
	nilH.Observe(time.Millisecond) // must not panic
}

func TestQuantileSingleBucket(t *testing.T) {
	// Every observation is exactly 1 ms, which is a bucket boundary: all
	// mass lands in one bucket, so every quantile must interpolate inside
	// that bucket's bounds — never below its lower edge or above 1 ms.
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	idx := bucketIndex(time.Millisecond.Nanoseconds())
	lower := BoundarySeconds(idx - 1)
	upper := BoundarySeconds(idx)
	if upper != 0.001 {
		t.Fatalf("1ms bucket upper bound = %v, want 0.001 (boundary table moved?)", upper)
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < lower || got > upper {
			t.Errorf("Quantile(%v) = %v, outside the only occupied bucket [%v, %v]",
				q, got, lower, upper)
		}
	}
	// The extremes pin to the bucket edges exactly.
	if got := h.Quantile(0); got != lower {
		t.Errorf("Quantile(0) = %v, want bucket lower bound %v", got, lower)
	}
	if got := h.Quantile(1); got != upper {
		t.Errorf("Quantile(1) = %v, want bucket upper bound %v", got, upper)
	}
}

func TestQuantileClampsOutOfRangeQ(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if got, want := h.Quantile(-3), h.Quantile(0); got != want {
		t.Errorf("Quantile(-3) = %v, want clamp to Quantile(0) = %v", got, want)
	}
	if got, want := h.Quantile(7), h.Quantile(1); got != want {
		t.Errorf("Quantile(7) = %v, want clamp to Quantile(1) = %v", got, want)
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	// Observations beyond the 10 s table land in the +Inf overflow bucket.
	// There is no upper bound to interpolate toward, so quantiles report
	// the table's top boundary — finite, never +Inf or NaN.
	h := NewHistogram()
	h.Observe(90 * time.Second)
	h.Observe(5 * time.Minute)
	top := BoundarySeconds(histBucketsTotal - 2)
	for _, q := range []float64{0, 0.5, 1} {
		got := h.Quantile(q)
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Fatalf("overflow Quantile(%v) = %v", q, got)
		}
		if got != top {
			t.Errorf("overflow Quantile(%v) = %v, want table top %v", q, got, top)
		}
	}
	if got := BoundarySeconds(histBucketsTotal - 1); !math.IsInf(got, 1) {
		t.Errorf("final bucket bound = %v, want +Inf", got)
	}
}

func TestQuantileP100StaysInTopOccupiedBucket(t *testing.T) {
	// Mixed load: p100 must come from the highest occupied bucket even
	// when the mass below it dwarfs it.
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	got := h.Quantile(1)
	idx := bucketIndex(time.Second.Nanoseconds())
	if got != BoundarySeconds(idx) {
		t.Errorf("p100 = %v, want the 1s bucket bound %v", got, BoundarySeconds(idx))
	}
}

// TestRegistryRemoveRacesExposition drives Remove against concurrent
// Snapshot and WritePrometheus calls. Session teardown removes labeled
// series while scrapers iterate the registry; run under -race this pins
// the lock discipline.
func TestRegistryRemoveRacesExposition(t *testing.T) {
	r := NewRegistry(DomainWall)
	const workers = 4
	const rounds = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("slim_churn_total{session=%q}", fmt.Sprint(w))
				r.Counter(name).Inc()
				r.Gauge(fmt.Sprintf("slim_churn{session=%q}", fmt.Sprint(w))).Set(int64(i))
				r.Histogram(fmt.Sprintf("slim_churn_seconds{session=%q}", fmt.Sprint(w))).
					Observe(time.Millisecond)
				r.Remove(name)
				r.Remove(fmt.Sprintf("slim_churn{session=%q}", fmt.Sprint(w)))
				r.Remove(fmt.Sprintf("slim_churn_seconds{session=%q}", fmt.Sprint(w)))
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				_ = r.Snapshot()
				r.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	// After every worker removed its series, only whatever raced in last
	// may remain; a final Remove sweep must leave the registry re-usable.
	snap := r.Snapshot()
	for name := range snap.Counters {
		r.Remove(name)
	}
	if n := len(r.Snapshot().Counters); n != 0 {
		t.Errorf("%d counters survived removal", n)
	}
}
