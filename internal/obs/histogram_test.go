package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the layout the package documents: log-spaced
// boundaries from 0.1 ms to 10 s, five per decade, with the paper's
// perception thresholds each resolved by a distinct bucket.
func TestBucketBoundaries(t *testing.T) {
	if got := len(HistogramSnapshot{}.Buckets); got != 27 {
		t.Fatalf("histograms have %d buckets, want 27", got)
	}
	if got := BoundarySeconds(0); got != 100e-6 {
		t.Errorf("BoundarySeconds(0) = %g, want 100µs", got)
	}
	if got := BoundarySeconds(numBoundaries - 1); math.Abs(got-10) > 1e-9 {
		t.Errorf("BoundarySeconds(last) = %g, want 10s", got)
	}
	if got := BoundarySeconds(numBoundaries); !math.IsInf(got, 1) {
		t.Errorf("BoundarySeconds(overflow) = %g, want +Inf", got)
	}
	// Boundaries strictly increase by the decade ratio.
	for i := 1; i < numBoundaries; i++ {
		lo, hi := BoundarySeconds(i-1), BoundarySeconds(i)
		if hi <= lo {
			t.Fatalf("boundary %d (%g) not above boundary %d (%g)", i, hi, i-1, lo)
		}
		ratio := hi / lo
		want := math.Pow(10, 1.0/histPerDecade)
		if math.Abs(ratio-want) > 0.02 {
			t.Errorf("boundary ratio %d = %.3f, want ≈%.3f", i, ratio, want)
		}
	}
	// The paper's perception thresholds land in distinct buckets.
	idx20 := bucketIndex((20 * time.Millisecond).Nanoseconds())
	idx50 := bucketIndex((50 * time.Millisecond).Nanoseconds())
	idx150 := bucketIndex((150 * time.Millisecond).Nanoseconds())
	if idx20 == idx50 || idx50 == idx150 {
		t.Errorf("perception thresholds share a bucket: 20ms=%d 50ms=%d 150ms=%d", idx20, idx50, idx150)
	}
}

// TestBucketIndexEdges exercises the exact edge placement: an observation
// equal to a boundary belongs to that boundary's bucket, one nanosecond
// above moves to the next.
func TestBucketIndexEdges(t *testing.T) {
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
	for i := 0; i < numBoundaries; i++ {
		b := histBoundaries[i]
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(boundary %d = %dns) = %d, want %d", i, b, got, i)
		}
		if got := bucketIndex(b + 1); got != i+1 {
			t.Errorf("bucketIndex(boundary %d + 1ns) = %d, want %d", i, got, i+1)
		}
	}
	// Anything past the top boundary is overflow.
	if got := bucketIndex((time.Hour).Nanoseconds()); got != numBoundaries {
		t.Errorf("bucketIndex(1h) = %d, want overflow bucket %d", got, numBoundaries)
	}
}

func TestObserveClampsNegative(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5 * time.Second)
	s := h.Snapshot()
	if s.Count != 1 || s.Buckets[0] != 1 {
		t.Fatalf("negative observation: count=%d buckets[0]=%d, want 1/1", s.Count, s.Buckets[0])
	}
	if s.SumSeconds != 0 {
		t.Errorf("negative observation sum = %g, want 0", s.SumSeconds)
	}
}

func TestSnapshotPercentiles(t *testing.T) {
	h := NewHistogram()
	// 100 observations spread uniformly over 1..100 ms: p50 ≈ 50 ms,
	// p99 ≈ 99 ms, within one bucket ratio (1.58×) of truth.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	checkWithin := func(name string, got, want float64) {
		t.Helper()
		lo, hi := want/1.6, want*1.6
		if got < lo || got > hi {
			t.Errorf("%s = %.4fs, want within [%.4f, %.4f]", name, got, lo, hi)
		}
	}
	checkWithin("p50", s.P50, 0.050)
	checkWithin("p95", s.P95, 0.095)
	checkWithin("p99", s.P99, 0.099)
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Errorf("percentiles not monotone: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
}

func TestEmptyHistogramSnapshot(t *testing.T) {
	s := NewHistogram().Snapshot()
	if s.Count != 0 || s.P50 != 0 || s.P99 != 0 {
		t.Errorf("empty snapshot = %+v, want all-zero", s)
	}
	var nilHist *Histogram
	nilHist.Observe(time.Millisecond) // must not panic
	if got := nilHist.Count(); got != 0 {
		t.Errorf("nil histogram Count = %d", got)
	}
}

func TestOverflowQuantile(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(time.Minute) // all overflow
	}
	s := h.Snapshot()
	if s.Buckets[numBoundaries] != 10 {
		t.Fatalf("overflow bucket = %d, want 10", s.Buckets[numBoundaries])
	}
	// Quantiles in the unbounded bucket report the top finite boundary.
	if want := BoundarySeconds(numBoundaries - 1); s.P50 != want {
		t.Errorf("overflow p50 = %g, want top boundary %g", s.P50, want)
	}
}

func TestHistogramDelta(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	h.Observe(time.Millisecond)
	first := h.Snapshot()

	for i := 0; i < 50; i++ {
		h.Observe(100 * time.Millisecond)
	}
	second := h.Snapshot()

	d := second.Delta(first)
	if d.Count != 50 {
		t.Fatalf("delta count = %d, want 50", d.Count)
	}
	// The window holds only the 100 ms observations; the 1 ms ones from
	// before the first scrape must not drag the percentile down.
	if d.P50 < 0.05 {
		t.Errorf("windowed p50 = %g, want ≈0.1 (window is all 100ms)", d.P50)
	}

	// A restart between scrapes (counts fall) yields the newer snapshot
	// unchanged.
	h = NewHistogram()
	h.Observe(time.Millisecond)
	third := h.Snapshot()
	d = third.Delta(second)
	if d.Count != third.Count {
		t.Errorf("delta after reset count = %d, want %d (snapshot itself)", d.Count, third.Count)
	}
}

// TestConcurrentObserveSnapshot hammers one histogram from many writers
// while a reader snapshots continuously. Run under -race this verifies the
// lock-free hot path; in any mode it verifies no observation is lost.
func TestConcurrentObserveSnapshot(t *testing.T) {
	h := NewHistogram()
	const writers = 8
	const perWriter = 5000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.P50 > s.P99 {
					t.Errorf("snapshot percentiles inverted: %+v", s)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*perWriter+i) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Writers finish independently of the reader; stop the reader once the
	// expected count lands.
	deadline := time.After(30 * time.Second)
	for h.Count() < writers*perWriter {
		select {
		case <-deadline:
			t.Fatalf("timed out; count = %d, want %d", h.Count(), writers*perWriter)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-done

	s := h.Snapshot()
	if s.Count != writers*perWriter {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perWriter)
	}
	var bucketTotal int64
	for _, n := range s.Buckets {
		bucketTotal += n
	}
	if bucketTotal != writers*perWriter {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, writers*perWriter)
	}
}
