// Command bench is the repository benchmark: live input-to-paint on four
// workloads, measured end to end with tracing off, and a separate traced
// run that decomposes the same path layer by layer. See README.md.
//
//	bash bench/run.sh -seed 1                 every workload, end to end
//	bash bench/run.sh -seed 1 -trace 1        ... and every per-layer metric
//	bash bench/run.sh -workload type_udp -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -repeat 5               spread of every gated metric
//	bash bench/run.sh -list                   metric names and units
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. The exit status is
// non-zero when a correctness gate fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// segments is how many independently assembled rigs a run's window is
// spread over.
const segments = 5

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the JSON result line (default: all)")
		seed    = flag.Uint64("seed", 1, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run's per-layer metrics")
		list    = flag.Bool("list", false, "print every metric name and unit, then exit")
		repeat  = flag.Int("repeat", 0, "run the end-to-end set this many times and report each metric's spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *list {
		printList(os.Stdout)
		return
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}

	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		selected = []workloadSpec{w}
	}
	if *repeat > 0 {
		os.Exit(runRepeat(selected, *seed, window, *repeat))
	}

	// One workload: exactly the run the flags name. Every workload: the
	// end-to-end run, then with -trace 1 the traced run as well.
	ok := true
	var last result
	report := func(w workloadSpec, defs []metricDef, res result, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		res.print(os.Stdout, w.name, defs)
		ok, last = ok && res.Correct, res
	}
	for _, w := range selected {
		if *trace == 0 || *name == "" {
			res, diag, err := runEndToEnd(w, *seed, window)
			report(w, endToEndMetrics, res, err)
			// The same window's latency and CPU figures, for the reader:
			// they are per-layer diagnostics, so the result line does not
			// carry them.
			for _, d := range perLayerMetrics {
				if v, ok := diag[d.name]; ok {
					fmt.Printf("%-14s %-36s %16.4f %s  (not gated)\n", w.name, d.name, v, d.unit)
				}
			}
		}
		if *trace == 1 {
			res, err := runPerLayer(w, *seed, window)
			report(w, perLayerMetrics, res, err)
		}
	}
	if *name != "" {
		line, _ := json.Marshal(last)
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

// runEndToEnd is one untraced run of w packed as a result, with the same
// window's driver.* diagnostics beside it. A violated correctness gate is
// printed and makes the result incorrect.
func runEndToEnd(w workloadSpec, seed uint64, window time.Duration) (result, map[string]float64, error) {
	live, err := runLive(w, seed, nil, window, segments)
	if err != nil {
		return result{}, nil, err
	}
	if live.err != nil {
		fmt.Println("INCORRECT:", live.err)
	}
	res, err := newResult(endToEndMetrics, w.name, live.endToEnd(), live.attempted, live.failed, live.err == nil && live.failed == 0)
	return res, live.diagnostics(w), err
}
