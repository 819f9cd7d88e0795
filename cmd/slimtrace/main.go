// Command slimtrace generates, inspects, and summarizes SLIM session
// traces — the §3.1 methodology as a tool — and explains the evidence a
// running system leaves behind.
//
// Usage:
//
//	slimtrace gen -app netscape -user 3 -minutes 10 -o netscape.trace
//	slimtrace stat -i netscape.trace
//	slimtrace json -i netscape.trace            # dump as JSON
//	slimtrace replay -i netscape.trace -kbps 1000   # Figure 6 on any trace
//	slimtrace explain run.slimcap               # wire tables + path estimates
//	slimtrace explain ./dumps                   # every breach dump + blame table
//	slimtrace explain -reattribute ./dumps/one-dump.json
//	slimtrace explain incidents/incident-...    # one incident bundle
//	slimtrace explain -perfetto out.json dump.json run.slimcap
//	slimtrace explain -o run.trace run.slimcap  # then: slimtrace stat/replay
//
// explain (explain.go) is the one reader of evidence.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"time"

	"slim/internal/netsim"
	"slim/internal/obs"
	"slim/internal/protocol"
	"slim/internal/stats"
	"slim/internal/trace"
	"slim/internal/workload"
)

// usage prints the subcommand synopsis to stderr and exits non-zero, so
// scripts and CI catch typos instead of silently succeeding.
func usage(reason string) {
	if reason != "" {
		fmt.Fprintf(os.Stderr, "slimtrace: %s\n", reason)
	}
	fmt.Fprint(os.Stderr, `usage: slimtrace <subcommand> [flags]

subcommands:
  gen      generate a synthetic §3.1 workload trace
  stat     summarize a trace (inputs, pixels/bytes per event, bandwidth)
  json     dump a trace as JSON
  replay   replay a trace over a simulated constrained link (Figure 6)
  explain  explain evidence: wire captures, breach dumps, incident bundles

run 'slimtrace <subcommand> -h' for flags
`)
	os.Exit(2)
}

func main() {
	log.SetPrefix("slimtrace: ")
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage("missing subcommand")
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "stat":
		stat(os.Args[2:])
	case "json":
		dumpJSON(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "explain":
		if err := explain(os.Stdout, os.Args[2:]); err != nil {
			log.Fatal(err)
		}
	case "-h", "--help", "help":
		usage("")
	default:
		usage(fmt.Sprintf("unknown subcommand %q", os.Args[1]))
	}
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	app := fs.String("app", "netscape", "application model: photoshop|netscape|framemaker|pim")
	user := fs.Int("user", 0, "simulated user index (varies the seed)")
	minutes := fs.Int("minutes", 10, "session length")
	seed := fs.Uint64("seed", 1999, "corpus seed")
	out := fs.String("o", "", "output file (binary trace); default <app>-<user>.trace")
	mustParse(fs, args)

	a, err := workload.ParseApp(*app)
	if err != nil {
		log.Fatal(err)
	}
	sess := workload.NewSession(a, *user, *seed)
	tr := sess.Run(time.Duration(*minutes) * time.Minute)
	path := *out
	if path == "" {
		path = fmt.Sprintf("%s-%d.trace", *app, *user)
	}
	if err := obs.WriteFile(path, tr.WriteBinary); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d records, %d input events, %.1f minutes\n",
		path, len(tr.Records), tr.InputCount(), tr.Duration.Minutes())
}

func load(path string) *trace.Trace {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func stat(args []string) {
	tr := loadInput(flag.NewFlagSet("stat", flag.ExitOnError), args)
	fmt.Printf("app=%s user=%d duration=%.1f min\n", tr.App, tr.User, tr.Duration.Minutes())
	fmt.Printf("input events: %d (%.2f/sec)\n", tr.InputCount(),
		float64(tr.InputCount())/tr.Duration.Seconds())
	px := tr.PixelsPerEvent()
	by := tr.BytesPerEvent()
	if px.N() > 0 {
		fmt.Printf("pixels/event: p50=%.0f p90=%.0f p99=%.0f\n",
			px.Percentile(.5), px.Percentile(.9), px.Percentile(.99))
		fmt.Printf("bytes/event:  p50=%.0f p90=%.0f p99=%.0f\n",
			by.Percentile(.5), by.Percentile(.9), by.Percentile(.99))
	}
	fmt.Printf("average SLIM bandwidth: %.3f Mbps\n", tr.AvgBandwidthBps()/1e6)
	writeCommandBytes(os.Stdout, tr.CommandBytes())
}

// writeCommandBytes prints stat's per-command rows by bytes, highest
// first, ties broken by command type, so one trace always prints one
// table.
func writeCommandBytes(w io.Writer, cb map[protocol.MsgType]trace.PerEvent) {
	fmt.Fprintln(w, "per-command bytes:")
	cmds := make([]protocol.MsgType, 0, len(cb))
	for cmd := range cb {
		cmds = append(cmds, cmd)
	}
	slices.SortFunc(cmds, func(a, b protocol.MsgType) int {
		return cmp.Or(cmp.Compare(cb[b].Bytes, cb[a].Bytes), cmp.Compare(a, b))
	})
	for _, cmd := range cmds {
		fmt.Fprintf(w, "  %-7s %12d bytes %14d pixels\n", cmd, cb[cmd].Bytes, cb[cmd].Pixels)
	}
}

func dumpJSON(args []string) {
	if err := loadInput(flag.NewFlagSet("json", flag.ExitOnError), args).WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// replay retransmits a trace's display packets over a simulated
// constrained link and reports the per-packet delays added relative to the
// 100 Mbps reference — the §5.4 / Figure 6 methodology applied to any
// captured session.
func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	kbps := fs.Float64("kbps", 1000, "constrained link rate in Kbps")
	tr := loadInput(fs, args)
	pkts := tr.Packets(0)
	if len(pkts) == 0 {
		log.Fatal("replay: trace has no display packets")
	}
	ref := &netsim.Link{Bps: netsim.Rate100Mbps}
	slow := &netsim.Link{Bps: *kbps * 1e3}
	cdf := stats.NewCDF(len(pkts))
	for _, d := range netsim.AddedDelays(pkts, ref, slow) {
		cdf.Add(d.Seconds())
	}
	fmt.Printf("%s: %d packets replayed at %.0f Kbps (reference 100 Mbps)\n",
		tr.App, len(pkts), *kbps)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		fmt.Printf("  p%02.0f added delay: %v\n", p*100,
			time.Duration(cdf.Percentile(p)*float64(time.Second)).Round(10*time.Microsecond))
	}
	fmt.Printf("  fraction above 100ms (noticeable): %.3f\n", 1-cdf.At(0.100))
}

// loadInput parses a subcommand's flags, adding the -i it cannot run
// without, and loads the trace that names.
func loadInput(fs *flag.FlagSet, args []string) *trace.Trace {
	in := fs.String("i", "", "input trace file")
	mustParse(fs, args)
	if *in == "" {
		log.Fatalf("%s: -i is required", fs.Name())
	}
	return load(*in)
}

func mustParse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
}
