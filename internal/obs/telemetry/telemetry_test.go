package telemetry

import (
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
)

// TestObserversCountOneBreach: the SLO target is the one breach predicate.
// A latency one nanosecond under, exactly at, and one nanosecond over the
// target moves the SLO's breach counter, the flight recorder's breach
// counter and the blame histogram together — only on the latency above
// the target.
func TestObserversCountOneBreach(t *testing.T) {
	kit := New(obs.DomainWall)
	sess := kit.Session(1, "alice")
	target := kit.SLO.Target()
	for _, tc := range []struct {
		name     string
		latency  time.Duration
		breaches int64 // cumulative, after this latency
	}{
		{"target-1ns", target - time.Nanosecond, 0},
		{"target", target, 0},
		{"target+1ns", target + time.Nanosecond, 1},
	} {
		sess.ObservePaint(obs.Wall.Now(), tc.latency)
		snap := kit.Registry.Snapshot()
		var blamed int64
		for name, n := range snap.Counters {
			if strings.HasPrefix(name, "slim_slo_blame_total{") {
				blamed += n
			}
		}
		slo, fl := snap.Counters["slim_slo_breaches_total"], snap.Counters["slim_flight_breaches_total"]
		if slo != tc.breaches || fl != tc.breaches || blamed != tc.breaches {
			t.Errorf("after %s: slim_slo_breaches_total %d, slim_flight_breaches_total %d, Σ slim_slo_blame_total %d; want %d each",
				tc.name, slo, fl, blamed, tc.breaches)
		}
	}
}
