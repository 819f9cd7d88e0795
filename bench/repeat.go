package main

import (
	"fmt"
	"os"
	"slices"
	"time"
)

// quartiles reports the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default, exclusive method),
// which is what the benchmark's acceptance check computes spreads from.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		if n == 1 {
			return x[0], x[0], x[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runRepeat runs the end-to-end set n times and prints, per workload and
// metric, the median, the quartiles and the spread — the interquartile
// distance as a share of the median — next to the metric's bound in
// BENCHMARK.json (a test pins the file to the table). The driver.*
// diagnostics of the same windows follow, without a bound. It returns the
// exit status: 1 when a run was incorrect or a gated metric's spread
// exceeds its bound. setup_s is reported but not gated on spread, as in the
// benchmark's acceptance check.
func runRepeat(selected []workloadSpec, seed uint64, window time.Duration, n int) int {
	status := 0
	for _, w := range selected {
		samples := make(map[string][]float64)
		for i := 0; i < n; i++ {
			res, diag, err := runEndToEnd(w, seed, window)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !res.Correct {
				status = 1
			}
			for name, mv := range res.Metrics {
				samples[name] = append(samples[name], mv.Value)
			}
			for name, v := range diag {
				samples[name] = append(samples[name], v)
			}
		}
		for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
			if len(samples[d.name]) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(samples[d.name])
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			verdict := "ok"
			switch {
			case d.bound == 0 || d.name == "setup_s":
				verdict = "not gated"
			case spread > d.bound:
				verdict = "SPREAD EXCEEDS BOUND"
				status = 1
			}
			fmt.Printf("%-14s %-36s median %14.4f %-5s q1 %14.4f q3 %14.4f spread %6.2f%% bound %5.1f%%  %s\n",
				w.name, d.name, q2, d.unit, q1, q3, 100*spread, 100*d.bound, verdict)
		}
	}
	return status
}
