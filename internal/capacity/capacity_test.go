package capacity

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"slim/internal/benchfile"
	"slim/internal/workload"
)

// smoke is the tiny two-point LAN ramp the CI capacity smoke runs: light
// load versus heavy load, short sessions, seconds of wall time.
func smoke() Scenario {
	sc := LAN()
	sc.Start = 4
	sc.Step = 28
	sc.MaxUsers = 32
	sc.SessionLen = 30 * time.Second
	sc.BurnThreshold = 100 // never stop early: the smoke wants both points
	return sc
}

// TestCapacitySmoke is the CI gate: a two-point ramp must produce a
// well-formed curve whose latency grows with load — the capacity model's
// one non-negotiable property. Runs in seconds.
func TestCapacitySmoke(t *testing.T) {
	curve := RunScenario(smoke(), nil)
	if len(curve.Points) != 2 {
		t.Fatalf("smoke ramp produced %d points, want 2", len(curve.Points))
	}
	lo, hi := curve.Points[0], curve.Points[1]
	if lo.Users != 4 || hi.Users != 32 {
		t.Fatalf("point users = %d, %d, want 4, 32", lo.Users, hi.Users)
	}
	for _, p := range curve.Points {
		if p.Events <= 0 || p.P50Ms <= 0 || p.P95Ms < p.P50Ms || p.P99Ms < p.P95Ms {
			t.Errorf("malformed point %+v", p)
		}
		if p.State == "" {
			t.Errorf("point %d has no state", p.Users)
		}
	}
	// The defining property: more users, more latency.
	if hi.P95Ms <= lo.P95Ms {
		t.Errorf("p95 did not grow with load: %0.1fms at %d users vs %0.1fms at %d",
			lo.P95Ms, lo.Users, hi.P95Ms, hi.Users)
	}

	path := filepath.Join(t.TempDir(), "BENCH_capacity.json")
	if err := benchfile.Write(path, Bench{Schema: BenchSchema, Scenarios: []Curve{curve}}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Bench
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != BenchSchema || len(got.Scenarios) != 1 {
		t.Fatalf("roundtrip = %+v", got)
	}
	if len(got.Scenarios[0].Points) != 2 {
		t.Fatalf("roundtrip lost points: %+v", got.Scenarios[0])
	}
}

// TestScenarioDeterminism pins the harness to its seed: capacity numbers
// in review diffs are only meaningful if reruns reproduce them.
func TestScenarioDeterminism(t *testing.T) {
	a := RunScenario(smoke(), nil)
	b := RunScenario(smoke(), nil)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same scenario, different curves:\n%+v\n%+v", a, b)
	}
}

// TestRampStopsAtKnee verifies the burn threshold actually terminates the
// ramp and CapacityUsers reports the last sub-threshold point.
func TestRampStopsAtKnee(t *testing.T) {
	sc := LAN()
	sc.Start = 8
	sc.Step = 16
	sc.MaxUsers = 96
	sc.SessionLen = 30 * time.Second
	curve := RunScenario(sc, nil)
	if !curve.Saturated {
		t.Fatalf("ramp to %d users never crossed burn %0.1f: %+v",
			sc.MaxUsers, sc.BurnThreshold, curve.Points)
	}
	last := curve.Points[len(curve.Points)-1]
	if last.Burn < sc.BurnThreshold {
		t.Errorf("saturated but last burn %0.2f < threshold", last.Burn)
	}
	if curve.CapacityUsers >= last.Users {
		t.Errorf("capacity %d not below the knee point %d", curve.CapacityUsers, last.Users)
	}
}

// TestProgressCallback checks every completed point is reported.
func TestProgressCallback(t *testing.T) {
	var seen []int
	curve := RunScenario(smoke(), func(p Point) { seen = append(seen, p.Users) })
	if len(seen) != len(curve.Points) {
		t.Errorf("progress saw %v, curve has %d points", seen, len(curve.Points))
	}
}

// TestDefaults pins the exported scenarios' guardrails.
func TestDefaults(t *testing.T) {
	for _, sc := range []Scenario{LAN(), WAN(), {}} {
		d := sc.withDefaults()
		if d.LinkBps <= 0 || d.CPUs <= 0 || d.Start <= 0 || d.Step <= 0 ||
			d.MaxUsers < d.Start || d.SessionLen <= 0 || d.BurnThreshold <= 0 || d.Seed == 0 {
			t.Errorf("%q defaults incomplete: %+v", sc.Name, d)
		}
		if len(d.Apps) == 0 {
			t.Errorf("%q has no app mix", sc.Name)
		}
	}
	if len(LAN().Apps) != 0 || LAN().withDefaults().Apps[0] != workload.Apps[0] {
		t.Error("LAN should default to the full Table 2 corpus")
	}
}

// TestCommittedBench validates the artifact committed at the repo root:
// parseable, current schema, multi-point monotone-usered curves that found
// their knees. A ramp change that regenerates BENCH_capacity.json keeps
// this green; one that forgets to regenerate it fails here.
func TestCommittedBench(t *testing.T) {
	var b Bench
	benchfile.Committed(t, "BENCH_capacity.json", BenchSchema, "make capacity", &b)
	if len(b.Scenarios) < 2 {
		t.Fatalf("want lan + wan scenarios, got %d", len(b.Scenarios))
	}
	for _, c := range b.Scenarios {
		if len(c.Points) < 2 {
			t.Errorf("%s: only %d points", c.Scenario.Name, len(c.Points))
			continue
		}
		for i := 1; i < len(c.Points); i++ {
			if c.Points[i].Users <= c.Points[i-1].Users {
				t.Errorf("%s: users not increasing at point %d", c.Scenario.Name, i)
			}
		}
		first, last := c.Points[0], c.Points[len(c.Points)-1]
		if last.P95Ms <= first.P95Ms {
			t.Errorf("%s: p95 flat across the ramp (%0.1f -> %0.1f ms)",
				c.Scenario.Name, first.P95Ms, last.P95Ms)
		}
		if c.Saturated && last.Burn < c.Scenario.BurnThreshold {
			t.Errorf("%s: saturated but final burn %0.2f below threshold", c.Scenario.Name, last.Burn)
		}
	}
}

// TestPointJSONShape pins the field names the smoke-test jq and any
// dashboards key on.
func TestPointJSONShape(t *testing.T) {
	raw, err := json.Marshal(Point{Users: 3, P95Ms: 1.5, State: "OK"})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"users":3`, `"p95_ms":1.5`, `"state":"OK"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Errorf("point JSON %s missing %s", raw, key)
		}
	}
}
