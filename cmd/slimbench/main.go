// Command slimbench regenerates every table and figure in the paper's
// evaluation (§4–§7) and prints them in the paper's terms. The default
// corpus is sized to finish in seconds; use -users and -minutes to run at
// the paper's user-study scale.
//
// The hotpath, netqual, capacity and codec2 subcommands regenerate the
// committed BENCH_*.json artifacts instead (see artifacts.go; each takes
// -o and -h).
//
// Usage:
//
//	slimbench                      # everything, quick corpus
//	slimbench -run fig9 -users 20  # one experiment, bigger corpus
//	slimbench capacity -scenario wan -max-users 32 -minutes 5
//	slimbench codec2 -o BENCH_codec2.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"slim/internal/experiments"
	"slim/internal/workload"
)

func main() {
	log.SetPrefix("slimbench: ")
	log.SetFlags(0)
	if len(os.Args) > 1 {
		if run, ok := artifacts[os.Args[1]]; ok {
			run(os.Args[2:])
			return
		}
	}
	users := flag.Int("users", 10, "simulated study participants per application (paper: 50)")
	minutes := flag.Int("minutes", 10, "session minutes per user (paper: >=10)")
	seed := flag.Uint64("seed", 1999, "corpus seed")
	run := flag.String("run", "all", "comma list: table4,table5,fig2,fig3,fig4,fig5,fig6,fig7,fig8,fig9,fig10,fig11,fig12,multimedia,overhead,vnc,lowbw,qos,wm")
	runFor := flag.Duration("simtime", 60*time.Second, "simulated seconds per sharing data point")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("memprofile: %v", err)
			}
		}()
	}

	c := experiments.NewCorpus(experiments.Config{
		Users:    *users,
		Duration: time.Duration(*minutes) * time.Minute,
		Seed:     *seed,
	})
	want := map[string]bool{}
	for _, k := range strings.Split(*run, ",") {
		want[strings.TrimSpace(k)] = true
	}
	all := want["all"]
	sel := func(k string) bool { return all || want[k] }

	if sel("table4") {
		rtt, err := hostRTT(context.Background(), 64)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderTable4(experiments.Table4(rtt, 300*time.Millisecond)))
	}
	if sel("table5") {
		fmt.Println(experiments.RenderTable5(experiments.Table5Measured()))
	}
	if sel("fig2") {
		series := experiments.Figure2(c)
		fmt.Println(experiments.RenderCDFFigure(series,
			"Figure 2: input event frequency (events/sec)",
			[]float64{1, 5, 10, 20, 28}, func(x float64) string { return fmt.Sprintf("%.0fHz", x) }))
		fmt.Println(experiments.PlotCDFFigure(series, "Figure 2 (plot): CDF of input event frequency", true,
			func(x float64) string { return fmt.Sprintf("%.2fHz", x) }))
	}
	if sel("fig3") {
		series := experiments.Figure3(c)
		fmt.Println(experiments.RenderCDFFigure(series,
			"Figure 3: pixels changed per input event",
			[]float64{1e3, 1e4, 5e4, 2e5}, func(x float64) string { return fmt.Sprintf("%.0fKpx", x/1e3) }))
		fmt.Println(experiments.PlotCDFFigure(series, "Figure 3 (plot): CDF of pixels changed per event", true,
			func(x float64) string { return fmt.Sprintf("%.0fpx", x) }))
	}
	if sel("fig4") {
		fmt.Println(experiments.RenderFigure4(experiments.Figure4(c)))
	}
	if sel("fig5") {
		series := experiments.Figure5(c)
		fmt.Println(experiments.RenderCDFFigure(series,
			"Figure 5: SLIM protocol bytes per input event",
			[]float64{1e3, 1e4, 5e4}, func(x float64) string { return fmt.Sprintf("%.0fKB", x/1e3) }))
		fmt.Println(experiments.PlotCDFFigure(series, "Figure 5 (plot): CDF of SLIM bytes per event", true,
			func(x float64) string { return fmt.Sprintf("%.0fB", x) }))
	}
	if sel("fig6") {
		series := experiments.Figure6(c)
		fmt.Println(experiments.RenderFigure6(series))
		fmt.Println(experiments.PlotDelaySeries(series))
	}
	if sel("fig7") {
		fmt.Println(experiments.RenderCDFFigure(experiments.Figure7(c),
			"Figure 7: display update service times on the modelled console",
			[]float64{0.010, 0.050, 0.100}, func(x float64) string { return fmt.Sprintf("%.0fms", x*1e3) }))
	}
	if sel("fig8") {
		fmt.Println(experiments.RenderFigure8(experiments.Figure8(c)))
	}
	if sel("fig9") {
		users := []int{1, 4, 8, 10, 12, 14, 16, 18, 24, 30, 36, 44}
		var results []experiments.SharingResult
		for _, app := range workload.Apps {
			r := experiments.Figure9(c, app, users, *runFor)
			results = append(results, r)
			fmt.Println("Figure 9: " + experiments.RenderSharing(r, "avg added"))
		}
		fmt.Println(experiments.PlotSharing(results, "Figure 9 (plot): added latency vs active users (1 CPU)", "avg added"))
	}
	if sel("fig10") {
		for _, r := range experiments.Figure10(c, []int{1, 2, 4, 8}, []int{4, 8, 12, 16, 20}, *runFor) {
			fmt.Println("Figure 10: " + experiments.RenderSharing(r, "avg added"))
		}
	}
	if sel("fig11") {
		gui := []int{25, 50, 100, 130, 160, 200, 300, 500}
		txt := []int{100, 250, 500, 750, 1000, 1500, 2000}
		for _, app := range []workload.App{workload.Photoshop, workload.Netscape} {
			r := experiments.Figure11(c, app, gui, 5, *runFor/2)
			fmt.Println("Figure 11 (paper-density traffic): " + experiments.RenderSharing(r, "avg RTT"))
		}
		for _, app := range []workload.App{workload.FrameMaker, workload.PIM} {
			r := experiments.Figure11(c, app, txt, 5, *runFor/2)
			fmt.Println("Figure 11 (paper-density traffic): " + experiments.RenderSharing(r, "avg RTT"))
		}
	}
	if sel("fig12") {
		fmt.Println("Figure 12: day-long installation profiles")
		for i, site := range experiments.Figure12Sites() {
			samples := experiments.Figure12(site, *seed+uint64(i))
			fmt.Print(experiments.RenderFigure12(site, samples))
		}
		fmt.Println()
	}
	if sel("multimedia") {
		fmt.Println(experiments.RenderMultimedia(experiments.Multimedia()))
	}
	if sel("vnc") {
		var rows []experiments.VNCComparison
		for _, app := range workload.Apps {
			for _, hz := range []float64{2, 10} {
				r, err := experiments.CompareVNC(app, hz, *seed, time.Duration(*minutes)*time.Minute)
				if err != nil {
					log.Fatal(err)
				}
				rows = append(rows, r)
			}
		}
		fmt.Println(experiments.RenderVNCComparison(rows))
	}
	if sel("lowbw") {
		var rows []experiments.LowBWResult
		for _, app := range workload.Apps {
			for _, bps := range []float64{128e3, 56e3} {
				r, err := experiments.LowBandwidth(app, bps, *seed, time.Duration(*minutes)*time.Minute)
				if err != nil {
					log.Fatal(err)
				}
				rows = append(rows, r)
			}
		}
		fmt.Println(experiments.RenderLowBandwidth(rows))
	}
	if sel("qos") {
		r, err := experiments.MixedLoad()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderMixedLoad(r))
		rows := experiments.QoSAblation(c, workload.Netscape, []int{8, 12, 16, 24}, *runFor)
		fmt.Println(experiments.RenderQoS(rows))
	}
	if sel("wm") {
		r, err := experiments.WMTraffic(*minutes, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(experiments.RenderWMTraffic(r))
	}
	if sel("overhead") {
		frac := experiments.EncoderOverhead(c)
		fmt.Printf("Section 5.5: SLIM protocol generation is %.1f%% of server display-path time (paper: 1.7%% of X-server execution)\n\n", 100*frac)
	}
}
