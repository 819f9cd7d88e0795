package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-spaced boundaries covering 0.1 ms to 10 s,
// five buckets per decade (ratio 10^(1/5) ≈ 1.58×). Five decades resolve
// the paper's human-perception thresholds — 20 ms, 50 ms, 150 ms (§3) —
// each into its own bucket, while still spanning sub-millisecond fabric
// RTTs (Table 4's 550 µs) and multi-second pathologies. Two extra buckets
// catch underflow (<0.1 ms) and overflow (>10 s).
const (
	histDecades      = 5
	histPerDecade    = 5
	histBoundaryLow  = 100 * time.Microsecond
	numBoundaries    = histDecades*histPerDecade + 1 // 0.1ms, ..., 10s inclusive
	numBuckets       = numBoundaries + 1             // plus overflow
	histBucketsTotal = numBuckets
)

// histBoundaries[i] is the inclusive upper bound of bucket i, in
// nanoseconds. Bucket numBoundaries (the last) is the +Inf overflow.
var histBoundaries = func() [numBoundaries]int64 {
	var b [numBoundaries]int64
	low := float64(histBoundaryLow.Nanoseconds())
	for i := range b {
		b[i] = int64(math.Round(low * math.Pow(10, float64(i)/histPerDecade)))
	}
	return b
}()

// Histogram is a fixed-bucket latency histogram with a lock-free Observe:
// one binary search over precomputed integer boundaries plus three atomic
// adds. Snapshots are consistent enough for live monitoring (count and sum
// may momentarily disagree with the buckets by in-flight observations).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram. Histograms are normally obtained
// from a Registry, which names them.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex locates the bucket for a duration of ns nanoseconds.
func bucketIndex(ns int64) int {
	// Binary search over the boundary table: buckets[i] holds observations
	// with ns <= histBoundaries[i] (and > histBoundaries[i-1]).
	lo, hi := 0, numBoundaries
	for lo < hi {
		mid := (lo + hi) / 2
		if ns <= histBoundaries[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo // numBoundaries = overflow
}

// Observe records one latency observation. Negative durations clamp to
// zero. Safe for any number of concurrent callers; never blocks.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// HistogramSnapshot is a point-in-time copy of a histogram, with the
// standard interactive percentiles precomputed.
type HistogramSnapshot struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	// Buckets[i] counts observations at or under BoundarySeconds(i); the
	// final entry is the overflow bucket.
	Buckets [histBucketsTotal]int64 `json:"buckets"`
	P50     float64                 `json:"p50_seconds"`
	P95     float64                 `json:"p95_seconds"`
	P99     float64                 `json:"p99_seconds"`
}

// BoundarySeconds reports bucket i's inclusive upper bound in seconds;
// the final bucket reports +Inf.
func BoundarySeconds(i int) float64 {
	if i >= numBoundaries {
		return math.Inf(1)
	}
	return float64(histBoundaries[i]) / 1e9
}

// Snapshot copies the histogram and computes p50/p95/p99.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.SumSeconds = float64(h.sum.Load()) / 1e9
	var total int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		total += n
	}
	// Percentiles come from the bucket distribution (count may trail the
	// bucket total by concurrent in-flight observations; use the total).
	s.P50 = quantileFromBuckets(s.Buckets, total, 0.50)
	s.P95 = quantileFromBuckets(s.Buckets, total, 0.95)
	s.P99 = quantileFromBuckets(s.Buckets, total, 0.99)
	return s
}

// Quantile estimates the q-quantile (0..1) in seconds from the live
// buckets.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Snapshot().quantile(q)
}

// Delta reports the histogram activity between prev and s — the
// observations recorded in the window separating two scrapes — with
// percentiles recomputed over just that window. Scrapers (cmd/slimstat)
// use it to render per-interval rather than since-boot latency. A counter
// reset between scrapes (negative delta) yields s itself.
func (s HistogramSnapshot) Delta(prev HistogramSnapshot) HistogramSnapshot {
	if s.Count < prev.Count {
		return s // registry was reset between scrapes
	}
	var d HistogramSnapshot
	d.Count = s.Count - prev.Count
	d.SumSeconds = s.SumSeconds - prev.SumSeconds
	var total int64
	for i := range s.Buckets {
		n := s.Buckets[i] - prev.Buckets[i]
		if n < 0 {
			n = 0
		}
		d.Buckets[i] = n
		total += n
	}
	d.P50 = quantileFromBuckets(d.Buckets, total, 0.50)
	d.P95 = quantileFromBuckets(d.Buckets, total, 0.95)
	d.P99 = quantileFromBuckets(d.Buckets, total, 0.99)
	return d
}

func (s HistogramSnapshot) quantile(q float64) float64 {
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	return quantileFromBuckets(s.Buckets, total, q)
}

// quantileFromBuckets interpolates a quantile inside the first bucket whose
// cumulative count reaches rank. Within a bucket the distribution is
// assumed uniform between the bucket's bounds, which bounds the error at
// one bucket ratio (≈1.58×) — ample for live p50/p95/p99 monitoring.
func quantileFromBuckets(buckets [histBucketsTotal]int64, total int64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range buckets {
		if n == 0 {
			continue
		}
		if float64(cum)+float64(n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = BoundarySeconds(i - 1)
			}
			upper := BoundarySeconds(i)
			if math.IsInf(upper, 1) {
				// Overflow bucket: report its lower bound; there is no
				// upper bound to interpolate toward.
				return BoundarySeconds(numBoundaries - 1)
			}
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lower + frac*(upper-lower)
		}
		cum += n
	}
	return BoundarySeconds(numBoundaries - 1)
}
