// Command slimtrace generates, inspects, and summarizes SLIM session
// traces — the §3.1 methodology as a tool.
//
// Usage:
//
//	slimtrace gen -app netscape -user 3 -minutes 10 -o netscape.trace
//	slimtrace stat -i netscape.trace
//	slimtrace json -i netscape.trace            # dump as JSON
//	slimtrace replay -i netscape.trace -kbps 1000   # Figure 6 on any trace
//	slimtrace flight -i flight-sess1-1.json         # inspect a breach dump
//	slimtrace flight -i dump.json -perfetto out.json -o breach.trace
//	slimtrace blame -dir ./dumps                    # aggregate breach blame
//	slimtrace blame -i flight-sess1-1.json -reattribute
//	slimtrace capture -i run.slimcap                # per-command wire tables
//	slimtrace capture -i run.slimcap -perfetto wire.json -o run.trace
//	slimtrace netqual -i run.slimcap                # per-session path estimates
//	slimtrace incident -dir ./incidents             # list incident bundles
//	slimtrace incident -i incidents/incident-...    # summarize one bundle
//
// The flight subcommand reads a flight-recorder breach dump (written by a
// server whose input-to-paint latency crossed the breach threshold, see
// internal/obs/flight), walks its causal chains, and can convert it to
// either a Perfetto trace (-perfetto) or a §3.1 offline trace (-o) so
// dumps flow through the same stat/replay analysis path as generated
// workloads.
//
// The blame subcommand aggregates breach dumps — one (-i) or a directory
// of them (-dir) — into the per-stage attribution table: how many breaches
// each pipeline stage (ENCODE, QUEUE, WIRE, DECODE, PAINT) dominated, its
// blame share, and average latencies. Dumps carry the verdict stamped at
// breach time; -reattribute re-walks each dump's causal chain instead,
// useful after attribution-logic changes or on dumps from older recorders.
//
// The capture subcommand decodes a .slimcap wire capture (recorded by
// slimd -capture or any enabled capture ring; format in PROTOCOL.md) and
// prints per-command-type count/byte/pixel/bandwidth tables in the shape
// of the paper's Tables 2-3, measured on the wire rather than modelled.
//
// The netqual subcommand replays a .slimcap capture offline through the
// passive path estimators (internal/obs/netqual): down-direction display
// datagrams re-arm the send ring, up-direction STATUS/NACK traffic yields
// RTT/jitter/loss samples, and the result is a per-console path table —
// the same numbers a live server exports as slim_netqual_*, recovered
// from a spool after the fact.
// -perfetto exports the datagrams as instant events on down/up tracks
// that load alongside a flight export; -o converts the capture to a §3.1
// offline trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"slim/internal/netsim"
	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/incident"
	"slim/internal/obs/netqual"
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
  flight   inspect a flight-recorder breach dump
  blame    aggregate breach dumps into a per-stage attribution table
  capture  decode a .slimcap wire capture into per-command tables
  netqual  replay a .slimcap capture through the passive path estimators
  incident list or summarize incident bundles (slimd -incident-dir)

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
	case "flight":
		flightCmd(os.Args[2:])
	case "blame":
		blameCmd(os.Args[2:])
	case "capture":
		captureCmd(os.Args[2:])
	case "netqual":
		netqualCmd(os.Args[2:])
	case "incident":
		incidentCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage("")
	default:
		usage(fmt.Sprintf("unknown subcommand %q", os.Args[1]))
	}
}

// captureCmd decodes a .slimcap wire capture into the paper's Tables 2-3
// shape and optionally exports it for Perfetto or offline trace analysis.
func captureCmd(args []string) {
	fs := flag.NewFlagSet("capture", flag.ExitOnError)
	in := fs.String("i", "", "input .slimcap capture file")
	perfetto := fs.String("perfetto", "", "write Chrome/Perfetto trace-event JSON here")
	out := fs.String("o", "", "write a binary §3.1 trace here (for slimtrace stat/replay)")
	mustParseInput(fs, args, in)
	h, recs := readCapture(*in)
	rep := capture.BuildReport(h, recs)
	if err := rep.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}
	writeExports(*perfetto, func(w io.Writer) error { return capture.WritePerfetto(w, h, recs) },
		*out, func() *trace.Trace { return trace.FromCapture(recs) })
}

// netqualCmd replays a .slimcap wire capture through the passive path
// estimators and prints the per-console path table a live server would
// export as slim_netqual_* — SRTT from STATUS acks against replayed
// sends, jitter from STATUS inter-arrivals, loss from NACK ranges and
// cumulative console drop counters, goodput from acked bytes.
func netqualCmd(args []string) {
	fs := flag.NewFlagSet("netqual", flag.ExitOnError)
	in := fs.String("i", "", "input .slimcap capture file")
	mustParseInput(fs, args, in)
	_, recs := readCapture(*in)

	// A replay is virtual time whichever domain the spool came from: the
	// tracker stamps from a clock set to each record's timestamp, so
	// window reads line up with record times.
	clk := obs.NewClock(obs.DomainSim)
	tr := netqual.New(clk, netqual.DefaultConfig())
	tr.SetEnabled(true)

	type replaySession struct {
		console string
		nq      *netqual.PathSession
		maxSeq  uint32 // high-water display seq, for offline retransmit detection
		down    int64  // display datagrams replayed
		up      int64  // STATUS/NACK/grant messages replayed
	}
	sessions := map[string]*replaySession{}
	nextID := uint32(1)
	lookup := func(console string) *replaySession {
		if console == "" {
			console = "?"
		}
		rs, ok := sessions[console]
		if !ok {
			rs = &replaySession{console: console, nq: tr.Session(nextID, console)}
			sessions[console] = rs
			nextID++
		}
		return rs
	}

	var sizeOnly, undecodable int
	var lastT time.Duration
	for _, rec := range recs {
		if rec.T > lastT {
			lastT = rec.T
		}
		if rec.Wire == nil {
			sizeOnly++ // netsim links spool sizes, not payloads
			continue
		}
		seqs, msgs, err := protocol.DecodeAny(rec.Wire)
		if err != nil {
			undecodable++
			continue
		}
		rs := lookup(rec.Console)
		clk.Set(rec.T)
		switch rec.Dir {
		case capture.DirDown:
			// Split the datagram's wire size evenly across its display
			// commands; header overhead is noise at goodput scale.
			display := 0
			for _, m := range msgs {
				switch m.Type() {
				case protocol.TypeSet, protocol.TypeBitmap, protocol.TypeFill,
					protocol.TypeCopy, protocol.TypeCSCS, protocol.TypeCachePaint,
					protocol.TypeAudio:
					display++
				}
			}
			for i, m := range msgs {
				switch m.Type() {
				case protocol.TypeSet, protocol.TypeBitmap, protocol.TypeFill,
					protocol.TypeCopy, protocol.TypeCSCS, protocol.TypeCachePaint,
					protocol.TypeAudio:
					seq := seqs[i]
					// Offline we cannot see the governor's retransmit flag;
					// a seq at or below the high-water mark is a replay.
					retrans := seq <= rs.maxSeq && rs.maxSeq != 0
					if seq > rs.maxSeq {
						rs.maxSeq = seq
					}
					rs.nq.OnSend(seq, rec.Size/display, retrans)
					rs.down++
				case protocol.TypeBandwidthRequest:
					rs.nq.OnProbe()
				}
			}
		case capture.DirUp:
			for _, m := range msgs {
				switch v := m.(type) {
				case *protocol.Status:
					rs.nq.OnStatus(v.LastSeq, v.Dropped)
					rs.up++
				case *protocol.Nack:
					rs.nq.OnNack(v.From, v.To)
					rs.up++
				case *protocol.BandwidthGrant:
					rs.nq.OnGrant()
					rs.up++
				}
			}
		}
	}

	names := make([]string, 0, len(sessions))
	for name := range sessions {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Printf("capture: %d records, %d consoles, span %s\n",
		len(recs), len(sessions), lastT.Round(time.Millisecond))
	if sizeOnly > 0 {
		fmt.Printf("  %d size-only records skipped (no payload to decode)\n", sizeOnly)
	}
	if undecodable > 0 {
		fmt.Printf("  %d undecodable records skipped\n", undecodable)
	}
	fmt.Printf("\n%-16s %8s %9s %9s %9s %7s %7s %10s %7s %5s\n",
		"console", "srtt", "rttvar", "minrtt", "jitter",
		"loss5s", "loss1m", "goodput", "sends", "acks")
	for _, name := range names {
		rs := sessions[name]
		nq := rs.nq
		fmt.Printf("%-16s %8s %9s %9s %9s %6.2f%% %6.2f%% %10s %7d %5d\n",
			rs.console,
			fmtPathDur(nq.SRTT()), fmtPathDur(nq.RTTVar()),
			fmtPathDur(nq.MinRTT()), fmtPathDur(nq.Jitter()),
			nq.LossShortAt(lastT)*100, nq.LossLongAt(lastT)*100,
			fmtBps(nq.GoodputAt(lastT)), rs.down, nq.Samples())
	}
}

// fmtPathDur renders an estimator duration, dashing out the "no samples
// yet" zero so empty paths read as unknown rather than instantaneous.
func fmtPathDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}

// fmtBps renders a bits-per-second rate with an adaptive unit.
func fmtBps(bps float64) string {
	switch {
	case bps <= 0:
		return "-"
	case bps >= 1e6:
		return fmt.Sprintf("%.2fMb/s", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1fkb/s", bps/1e3)
	default:
		return fmt.Sprintf("%.0fb/s", bps)
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
	writeFile(path, tr.WriteBinary)
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
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	mustParseInput(fs, args, in)
	tr := load(*in)
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
	fmt.Println("per-command bytes:")
	for cmd, pe := range tr.CommandBytes() {
		fmt.Printf("  %-7s %12d bytes %14d pixels\n", cmd, pe.Bytes, pe.Pixels)
	}
}

func dumpJSON(args []string) {
	fs := flag.NewFlagSet("json", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	mustParseInput(fs, args, in)
	if err := load(*in).WriteJSON(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// replay retransmits a trace's display packets over a simulated
// constrained link and reports the per-packet delays added relative to the
// 100 Mbps reference — the §5.4 / Figure 6 methodology applied to any
// captured session.
func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "", "input trace file")
	kbps := fs.Float64("kbps", 1000, "constrained link rate in Kbps")
	mustParseInput(fs, args, in)
	tr := load(*in)
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

// flightCmd inspects a flight-recorder breach dump: a per-kind event
// census, the causal chain of the breaching window, and optional exports
// to Perfetto (-perfetto) and the offline trace format (-o).
func flightCmd(args []string) {
	fs := flag.NewFlagSet("flight", flag.ExitOnError)
	in := fs.String("i", "", "input breach dump (flight-sess*.json)")
	perfetto := fs.String("perfetto", "", "write Chrome/Perfetto trace-event JSON here")
	out := fs.String("o", "", "write a binary §3.1 trace here (for slimtrace stat/replay)")
	mustParseInput(fs, args, in)
	d, err := readDump(*in)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("session %d (%s clock): input-to-paint %v breached threshold %v\n",
		d.Session, d.Domain,
		time.Duration(d.LatencyNs).Round(time.Microsecond),
		time.Duration(d.ThresholdNs))
	fmt.Printf("captured %s, %d events in the trailing %v\n",
		d.CapturedAt.Format(time.RFC3339), len(d.Events),
		time.Duration(d.WindowNs))

	kinds := make(map[flight.Kind]int)
	chains := make(map[uint64]int)
	for _, ev := range d.Events {
		kinds[ev.Kind]++
		if ev.Cause != 0 {
			chains[ev.Cause]++
		}
	}
	fmt.Printf("event census (%d causal chains):\n", len(chains))
	for k := flight.EvInput; k <= flight.EvBreach; k++ {
		if kinds[k] > 0 {
			fmt.Printf("  %-8s %6d\n", k, kinds[k])
		}
	}

	// Walk the last complete chain — input through paint — seq by seq.
	var last uint64
	for _, ev := range d.Events {
		if ev.Kind == flight.EvInput {
			last = ev.Cause
		}
	}
	if last != 0 {
		fmt.Printf("last causal chain (id %d):\n", last)
		var t0 time.Duration
		for _, ev := range d.Events {
			if ev.Cause != last {
				continue
			}
			if t0 == 0 {
				t0 = ev.T
			}
			fmt.Printf("  +%-12v %-8s", (ev.T - t0).Round(time.Microsecond), ev.Kind)
			if ev.Seq != 0 {
				fmt.Printf(" seq=%d", ev.Seq)
			}
			if ev.Cmd != 0 {
				fmt.Printf(" %s", ev.Cmd)
			}
			fmt.Println()
		}
	}

	writeExports(*perfetto, func(w io.Writer) error { return flight.WritePerfetto(w, d.Session, d.Events) },
		*out, func() *trace.Trace { return trace.FromFlightDump(d) })
}

// blameCmd aggregates breach dumps into the per-stage attribution table.
// Each dump carries the verdict computed at breach time; -reattribute
// ignores it and re-walks the causal chain from the recorded events, the
// path for dumps written before attribution existed (or after the
// attribution logic changed).
func blameCmd(args []string) {
	fs := flag.NewFlagSet("blame", flag.ExitOnError)
	in := fs.String("i", "", "one breach dump (flight-sess*.json)")
	dir := fs.String("dir", "", "directory of breach dumps to aggregate")
	reattr := fs.Bool("reattribute", false, "re-walk each dump's causal chain instead of trusting the stamped verdict")
	perSess := fs.Bool("sessions", false, "also print one table per session")
	mustParse(fs, args)
	if (*in == "") == (*dir == "") {
		log.Fatal("blame: exactly one of -i or -dir is required")
	}
	paths := []string{*in}
	if *dir != "" {
		var err error
		paths, err = filepath.Glob(filepath.Join(*dir, "flight-sess*.json"))
		if err != nil {
			log.Fatal(err)
		}
		if len(paths) == 0 {
			log.Fatalf("blame: no flight-sess*.json dumps in %s", *dir)
		}
		sort.Strings(paths)
	}

	var total flight.BlameTable
	bySession := make(map[uint32]*flight.BlameTable)
	for _, path := range paths {
		d, err := readDump(path)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		st := bySession[d.Session]
		if st == nil {
			st = &flight.BlameTable{}
			bySession[d.Session] = st
		}
		if *reattr {
			v := reattribute(d)
			total.AddVerdict(v, d.LatencyNs)
			st.AddVerdict(v, d.LatencyNs)
		} else {
			total.Add(d)
			st.Add(d)
		}
	}

	fmt.Printf("%d dumps from %d sessions\n", len(paths), len(bySession))
	if err := total.Format(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if *perSess && len(bySession) > 1 {
		ids := make([]uint32, 0, len(bySession))
		for id := range bySession {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			fmt.Printf("\nsession %d:\n", id)
			if err := bySession[id].Format(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
}

// reattribute re-walks a dump's events: the chain comes from the stamped
// verdict (or the last INPUT in the window), the as-of time from the
// BREACH marker (or the newest event). Host stall windows recorded in the
// dump re-enter the verdict, so HOST attribution survives offline replay.
func reattribute(d *flight.Dump) flight.Verdict {
	var chain, lastInput uint64
	if d.Verdict != nil {
		chain = d.Verdict.Chain
	}
	var asOf time.Duration
	for _, ev := range d.Events {
		if ev.T > asOf {
			asOf = ev.T
		}
		switch ev.Kind {
		case flight.EvInput:
			lastInput = ev.Cause
		case flight.EvBreach:
			if chain == 0 && ev.Cause != 0 {
				chain = ev.Cause
			}
		}
	}
	if chain == 0 {
		chain = lastInput
	}
	return flight.Attribute(d.Events, chain, asOf, d.HostWindows)
}

// incidentCmd lists a bundle directory (-dir) or summarizes one bundle
// (-i): the manifest, the collected files, the host state at capture, the
// top CPU consumers from the bundled profile window, and the verdicts of
// the bundled flight dumps.
func incidentCmd(args []string) {
	fs := flag.NewFlagSet("incident", flag.ExitOnError)
	dir := fs.String("dir", "", "incident-bundle directory (slimd -incident-dir) to list")
	in := fs.String("i", "", "one bundle directory (incident-*) to summarize")
	mustParse(fs, args)
	if (*in == "") == (*dir == "") {
		log.Fatal("incident: exactly one of -i or -dir is required")
	}
	if *dir != "" {
		bundles, err := incident.List(*dir)
		if err != nil {
			log.Fatal(err)
		}
		if len(bundles) == 0 {
			fmt.Printf("no incident bundles in %s\n", *dir)
			return
		}
		fmt.Printf("%-44s %-20s %-8s %-6s %s\n", "BUNDLE", "CREATED", "TRIGGER", "FILES", "REASON")
		for _, m := range bundles {
			fmt.Printf("%-44s %-20s %-8s %-6d %s\n", m.Name,
				m.CreatedAt.UTC().Format("2006-01-02T15:04:05Z"), m.Trigger,
				len(m.Files), m.Reason)
		}
		return
	}

	m, err := incident.ReadManifest(*in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bundle %s (v%d)\n", m.Name, m.Version)
	fmt.Printf("  trigger: %s (%s), created %s\n", m.Reason, m.Trigger,
		m.CreatedAt.UTC().Format(time.RFC3339))
	names := make([]string, 0, len(m.Files))
	for n := range m.Files {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  files (%d):\n", len(names))
	for _, n := range names {
		fmt.Printf("    %-28s %10d bytes\n", n, m.Files[n])
	}
	if len(m.Errors) > 0 {
		fmt.Printf("  collector errors (%d):\n", len(m.Errors))
		errNames := make([]string, 0, len(m.Errors))
		for n := range m.Errors {
			errNames = append(errNames, n)
		}
		sort.Strings(errNames)
		for _, n := range errNames {
			fmt.Printf("    %-28s %s\n", n, m.Errors[n])
		}
	}

	// Host state at capture time.
	if raw, err := os.ReadFile(filepath.Join(*in, "hostmon.json")); err == nil {
		var st hostmon.Status
		if err := json.Unmarshal(raw, &st); err == nil {
			fmt.Printf("  host at capture: heap %.1f MiB, %d goroutines, worst GC pause %v, tick lag %v\n",
				float64(st.Last.HeapBytes)/(1<<20), st.Last.Goroutines,
				time.Duration(st.Last.WorstGCPause).Round(time.Microsecond),
				time.Duration(st.Last.TickLag).Round(time.Microsecond))
			if len(st.Windows) > 0 {
				fmt.Printf("  live stall windows: %d\n", len(st.Windows))
			}
		}
	}

	// Top CPU consumers from the bundled profile window.
	if raw, err := os.ReadFile(filepath.Join(*in, "cpu.pprof")); err == nil {
		if self, err := hostmon.SelfTimeByPkg(raw); err == nil && len(self) > 0 {
			type ps struct {
				pkg string
				ns  int64
			}
			tops := make([]ps, 0, len(self))
			for p, ns := range self {
				tops = append(tops, ps{p, ns})
			}
			sort.Slice(tops, func(i, j int) bool { return tops[i].ns > tops[j].ns })
			if len(tops) > 8 {
				tops = tops[:8]
			}
			fmt.Println("  top self-time by package (bundled profile window):")
			for _, t := range tops {
				fmt.Printf("    %-40s %v\n", t.pkg, time.Duration(t.ns).Round(time.Millisecond))
			}
		}
	}

	// Verdicts of the bundled flight dumps.
	dumps, _ := filepath.Glob(filepath.Join(*in, "flight", "flight-sess*.json"))
	if len(dumps) > 0 {
		sort.Strings(dumps)
		var table flight.BlameTable
		for _, path := range dumps {
			d, err := readDump(path)
			if err != nil {
				continue
			}
			if d.Verdict != nil {
				table.Add(d)
			} else {
				table.AddVerdict(reattribute(d), d.LatencyNs)
			}
		}
		fmt.Printf("  bundled flight dumps (%d):\n", len(dumps))
		if err := table.Format(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}

// readCapture loads a .slimcap wire capture.
func readCapture(path string) (capture.Header, []capture.Record) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	h, recs, err := capture.ReadCapture(f)
	if err != nil {
		log.Fatal(err)
	}
	return h, recs
}

// readDump loads one flight-recorder breach dump.
func readDump(path string) (*flight.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return flight.ReadDump(f)
}

// writeFile creates path and fills it through write; any failure,
// including the close, is fatal.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// writeExports writes the two optional exports the capture and flight
// subcommands share: a Perfetto trace-event file and a binary §3.1 trace
// for slimtrace stat/replay. An empty path skips that export.
func writeExports(perfetto string, writePerfetto func(io.Writer) error, out string, toTrace func() *trace.Trace) {
	if perfetto != "" {
		writeFile(perfetto, writePerfetto)
		fmt.Printf("wrote Perfetto trace to %s (load at ui.perfetto.dev)\n", perfetto)
	}
	if out != "" {
		tr := toTrace()
		writeFile(out, tr.WriteBinary)
		fmt.Printf("wrote offline trace to %s (%d records)\n", out, len(tr.Records))
	}
}

// mustParseInput is mustParse for the subcommands that cannot run without
// their -i input file.
func mustParseInput(fs *flag.FlagSet, args []string, in *string) {
	mustParse(fs, args)
	if *in == "" {
		log.Fatalf("%s: -i is required", fs.Name())
	}
}

func mustParse(fs *flag.FlagSet, args []string) {
	if err := fs.Parse(args); err != nil {
		log.Fatal(err)
	}
}
