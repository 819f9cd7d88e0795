package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"slim/internal/benchfile"
	"slim/internal/capacity"
	"slim/internal/obs/netqual"
	"slim/internal/workload"
)

// artifacts maps each subcommand to the generator of one committed
// BENCH_*.json artifact; all four write through writeArtifact.
var artifacts = map[string]func(args []string){
	"hotpath":  runHotpath,
	"netqual":  runNetqual,
	"capacity": runCapacity,
	"codec2":   runCodec2,
}

// newFlags returns the flag set for `slimbench <name>` with the -o flag
// every artifact subcommand shares.
func newFlags(name, defaultOut string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("slimbench "+name, flag.ExitOnError)
	return fs, fs.String("o", defaultOut, "write the artifact here (empty: print only)")
}

// writeArtifact writes doc to path through the one artifact writer; an
// empty path writes nothing.
func writeArtifact(path string, doc any) {
	if path == "" {
		return
	}
	if err := benchfile.Write(path, doc); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

// hotpathResult is one `go test -bench` line, in the units Go reports.
type hotpathResult struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs,omitempty"` // the -N GOMAXPROCS suffix
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func parseBenchLine(line string) (hotpathResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return hotpathResult{}, false
	}
	r := hotpathResult{Name: fields[0]}
	if i := strings.LastIndex(r.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return hotpathResult{}, false
	}
	r.Iterations = iters
	// The rest is value/unit pairs: "251086 ns/op", "1044.32 MB/s", ...
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = v
		case "MB/s":
			r.MBPerS = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		}
	}
	return r, true
}

// runHotpath converts `go test -bench` text on stdin into the
// BENCH_hotpath.json array so the pixel-pipeline numbers can be
// committed, diffed, and plotted (`make bench-json`). Non-benchmark lines
// (ok/PASS/goos/pkg headers) are skipped.
func runHotpath(args []string) {
	fs, out := newFlags("hotpath", "BENCH_hotpath.json")
	fs.Parse(args)
	var results []hotpathResult
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseBenchLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(results) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	writeArtifact(*out, results)
}

// runNetqual regenerates the path-telemetry accuracy artifact: the RTT
// 1–300 ms × loss 0–10% netsim matrix swept through the passive
// estimators (internal/obs/netqual), estimated versus configured (`make
// netqual`).
func runNetqual(args []string) {
	fs, out := newFlags("netqual", "BENCH_netqual.json")
	fs.Parse(args)
	b := netqual.RunSweep()
	var worstRTT, worstLoss float64
	for _, p := range b.Points {
		worstRTT = max(worstRTT, p.RTTErrPct)
		worstLoss = max(worstLoss, p.LossErrPP)
	}
	fmt.Printf("%d points, worst RTT err %.2f%% (bar %d%%), worst loss err %.3fpp (bar %.1fpp)\n",
		len(b.Points), worstRTT, netqual.RTTTolerancePct, worstLoss, netqual.LossTolerancePP)
	writeArtifact(*out, b)
}

// runCapacity runs trace-driven capacity sweeps: how many mixed
// interactive users fit on one SLIM server before the latency SLO burns
// (see internal/capacity). Each scenario ramps the user count, simulating
// profiled sessions over shared CPUs and a shared downstream link, and
// evaluates every yardstick event against the SLO; the ramp stops at the
// burn knee. `make capacity` writes BENCH_capacity.json.
func runCapacity(args []string) {
	fs, out := newFlags("capacity", "")
	scenario := fs.String("scenario", "all", "which ramp to run: lan|wan|all")
	maxUsers := fs.Int("max-users", 0, "ramp ceiling (0: scenario default)")
	start := fs.Int("start", 0, "first user count (0: scenario default)")
	step := fs.Int("step", 0, "ramp step (0: scenario default)")
	minutes := fs.Float64("minutes", 0, "simulated session length per point (0: scenario default)")
	target := fs.Duration("target", 0, "SLO latency objective (0: the 150ms default)")
	budget := fs.Float64("budget", 0, "SLO breach budget fraction (0: the 1% default)")
	seed := fs.Uint64("seed", 0, "corpus seed (0: scenario default)")
	fs.Parse(args)

	var scs []capacity.Scenario
	switch *scenario {
	case "lan":
		scs = []capacity.Scenario{capacity.LAN()}
	case "wan":
		scs = []capacity.Scenario{capacity.WAN()}
	case "all":
		scs = []capacity.Scenario{capacity.LAN(), capacity.WAN()}
	default:
		log.Fatalf("unknown scenario %q (want lan|wan|all)", *scenario)
	}

	bench := capacity.Bench{Schema: capacity.BenchSchema}
	for i, sc := range scs {
		if *maxUsers > 0 {
			sc.MaxUsers = *maxUsers
		}
		if *start > 0 {
			sc.Start = *start
		}
		if *step > 0 {
			sc.Step = *step
		}
		if *minutes > 0 {
			sc.SessionLen = time.Duration(*minutes * float64(time.Minute))
		}
		sc.SLO.Target = *target
		sc.SLO.Budget = *budget
		if *seed != 0 {
			sc.Seed = *seed
		}
		if i > 0 {
			fmt.Println()
		}
		curve := capacity.RunScenario(sc, nil)
		if err := capacity.FormatCurve(os.Stdout, curve); err != nil {
			log.Fatal(err)
		}
		bench.Scenarios = append(bench.Scenarios, curve)
	}
	writeArtifact(*out, bench)
}

// runCodec2 runs the gen-2 codec comparison drives and prints the
// Figure 8-shaped bytes-on-wire table. `make codec2` writes
// BENCH_codec2.json; the drives are seeded with the pinned artifact seed
// so the TestCommittedBench validation stays exact.
func runCodec2(args []string) {
	fs, out := newFlags("codec2", "")
	names := fs.String("workload", "all", "drives to run: scroll|reexpose|mixed|window|all, comma list")
	fs.Parse(args)
	sel := strings.Split(*names, ",")
	if *names == "all" {
		sel = workload.DriveNames
	}
	b := &workload.CodecBench{Schema: workload.CodecBenchSchema, Seed: workload.DefaultCodecSeed}
	for _, n := range sel {
		row, err := workload.RunCodecRow(strings.TrimSpace(n), workload.DefaultCodecSeed)
		if err != nil {
			log.Fatal(err)
		}
		b.Rows = append(b.Rows, row)
	}
	fmt.Print(workload.RenderCodecBench(b))
	writeArtifact(*out, b)
}
