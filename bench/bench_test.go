package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestManifestMatchesTables pins the committed BENCHMARK.json to the
// metric and workload tables: same names in the same order, same units,
// directions and bounds.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json") // tests run in bench/
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var doc struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d, the default window %d", doc.RunSeconds, runSeconds)
	}
	var want []entry
	for _, w := range workloads {
		want = append(want, entry{Name: w.name, Why: w.why})
	}
	if !slices.Equal(doc.Workloads, want) {
		t.Errorf("workloads differ from the table:\n%v\n%v", doc.Workloads, want)
	}
	for _, c := range []struct {
		kind string
		got  []entry
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, perLayerMetrics}} {
		want = nil
		for _, d := range c.defs {
			want = append(want, entry{Name: d.name, Unit: d.unit, Better: d.better(), Bound: d.bound})
		}
		if !slices.Equal(c.got, want) {
			t.Errorf("%s differs from the table:\n%v\n%v", c.kind, c.got, want)
		}
	}
}

// TestListNamesEveryMetricOnce checks -list against the tables: every
// metric appears exactly once.
func TestListNamesEveryMetricOnce(t *testing.T) {
	var buf bytes.Buffer
	printList(&buf)
	out := buf.String()
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		if n := strings.Count(out, "  "+d.name+" "); n != 1 {
			t.Errorf("-list names %s %d times, want once", d.name, n)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{5, 1, 3, 2, 4})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 1.5 3 4.5", q1, q2, q3)
	}
}

// checkResult asserts a run was correct and complete: no failed input, and
// every named metric present and printed exactly once, with its unit and a
// finite value.
func checkResult(t *testing.T, w workloadSpec, kind string, defs []metricDef, res result) {
	t.Helper()
	if !res.Correct {
		t.Errorf("%s %s: run was not correct", w.name, kind)
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s %s: %d failed of %d attempted, want 0 failed and at least 1 attempted", w.name, kind, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s %s: %d metrics, want %d", w.name, kind, len(res.Metrics), len(defs))
	}
	var buf bytes.Buffer
	res.print(&buf, w.name, defs)
	for _, d := range defs {
		mv, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s %s: metric %s missing", w.name, kind, d.name)
			continue
		}
		if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("%s %s: metric %s = %v", w.name, kind, d.name, mv.Value)
		}
		if mv.Unit != d.unit {
			t.Errorf("%s %s: metric %s has unit %q, want %q", w.name, kind, d.name, mv.Unit, d.unit)
		}
		if n := strings.Count(buf.String(), " "+d.name+" "); n != 1 {
			t.Errorf("%s %s: metric %s printed %d times, want once", w.name, kind, d.name, n)
		}
	}
}

// TestSmoke runs every workload end to end with a one-second window and
// then traced, and checks paint detection completed for every input, the
// correctness gates passed, and every metric came out. The traced run
// itself fails unless the same seed gives the same encoder output twice
// (Pass A's capture against the encode replay); here the bytes the live
// transport counted must also agree with what the replayed encoder
// emitted.
func TestSmoke(t *testing.T) {
	settleTime, quiesceTime = 50*time.Millisecond, 50*time.Millisecond
	// Tenth-of-a-second passes are too short to price a layer to within
	// 15%; the exact checks (span nesting, replayed command counts, frame
	// buffers) still apply in full.
	residualTolerance = 1
	traceDir = t.TempDir()
	const seed = 7
	for _, w := range workloads {
		if raceBuild {
			// The race detector slows the program several times over: a
			// console cannot keep up with a 1280x1024 attach repaint, nor the
			// path with 24 frames a second. What is tested under it is the
			// harness's own synchronisation, on a quarter of the screen at
			// an eighth of the rate.
			quiesceTime = 300 * time.Millisecond
			w.rate /= 8
			if !w.fabric {
				w.w, w.h = 640, 480
			}
		}
		live, err := runLive(w, seed, nil, time.Second, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if live.err != nil {
			t.Errorf("%s: correctness gate: %v", w.name, live.err)
		}
		e2e, err := newResult(endToEndMetrics, w.name, live.endToEnd(), live.attempted, live.failed, live.err == nil && live.failed == 0)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, w, "end-to-end", endToEndMetrics, e2e)
		for _, d := range endToEndMetrics {
			if e2e.Metrics[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want positive", w.name, d.name, e2e.Metrics[d.name].Value)
			}
		}

		layers, err := runPerLayer(w, seed, 500*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, w, "per-layer", perLayerMetrics, layers)

		// The two should be the same bytes counted at two places. Control
		// traffic rides the transport too, and the spill of a paint over the
		// window's edge counts for more in a one-second window, so the live
		// count gets a margin either way. Under the race detector the
		// console lags, the server repaints, and the two are not comparable.
		wire, core := e2e.Metrics["wire_bytes_per_event"].Value, layers.Metrics["core.wire_bytes_per_event"].Value
		if !raceBuild && (wire < core*0.75 || wire > core*1.25) {
			t.Errorf("%s: live wire_bytes_per_event %v disagrees with replayed core.wire_bytes_per_event %v", w.name, wire, core)
		}
	}
}
