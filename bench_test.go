// Benchmarks: one testing.B per table and figure in the paper's evaluation
// (§4–§7), plus ablations for the design choices called out in DESIGN.md.
// Each bench reports the experiment's headline number through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the paper's
// results alongside the usual ns/op. cmd/slimbench prints the full tables.
package slim_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"slim"
	"slim/internal/core"
	"slim/internal/experiments"
	"slim/internal/fb"
	"slim/internal/netsim"
	"slim/internal/protocol"
	"slim/internal/video"
	"slim/internal/workload"
	"slim/internal/xproto"
)

var (
	corpusOnce sync.Once
	corpus     *experiments.Corpus
)

// benchCorpus returns a shared small user-study corpus (2 users x 3 min per
// application; slimbench runs the paper-scale version).
func benchCorpus() *experiments.Corpus {
	corpusOnce.Do(func() {
		corpus = experiments.NewCorpus(experiments.Config{
			Users: 2, Duration: 3 * time.Minute, Seed: 1999,
		})
		for _, app := range workload.Apps {
			corpus.Study(app) // generate outside the timed region
		}
	})
	return corpus
}

// BenchmarkTable4_ResponseTime measures the §4.1 echo path — keystroke in,
// glyph rendered on the console — over the in-process fabric, and reports
// the modelled Sun Ray RTT (paper: 550 µs over a 100 Mbps IF).
func BenchmarkTable4_ResponseTime(b *testing.B) {
	fabric := slim.NewFabric()
	srv := slim.NewServer(fabric, slim.WithTerminalApp())
	srv.Auth.Register("card", "u")
	con, err := slim.NewConsole(slim.ConsoleConfig{Width: 640, Height: 480})
	if err != nil {
		b.Fatal(err)
	}
	fabric.Attach("desk", con, srv)
	if err := fabric.Boot("desk", "card"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fabric.SendKey("desk", uint16('a'+i%26), true); err != nil {
			b.Fatal(err)
		}
		if err := fabric.SendKey("desk", uint16('a'+i%26), false); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Modelled 100 Mbps fabric RTT for the same path (the 550 µs row).
	b.ReportMetric(float64(experiments.ModelRTT().Microseconds()), "model-rtt-µs")
}

// BenchmarkTable4_X11perf runs the x11perf-style suite once per iteration
// through the full encode→wire→decode→render pipeline and reports the
// no-IF/with-IF composite ratio (paper: 7.505/3.834 ≈ 1.96).
func BenchmarkTable4_X11perf(b *testing.B) {
	enc := core.NewEncoder(1280, 1024)
	noWire := core.NewEncoder(1280, 1024)
	noWire.SkipWire = true
	screen := fb.New(1280, 1024)
	suite := xproto.Suite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range suite {
			dgs, err := enc.Encode(op.Build(i))
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range dgs {
				_, msg, _, err := protocol.Decode(d.Wire)
				if err != nil {
					b.Fatal(err)
				}
				if err := screen.Apply(msg); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := noWire.Encode(op.Build(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable5_ProtocolCosts exercises the console decode path for each
// Table 1 command at a representative size; slimbench -run table5 prints
// the fitted startup/per-pixel model next to the Sun Ray 1 numbers.
func BenchmarkTable5_ProtocolCosts(b *testing.B) {
	screen := fb.New(512, 512)
	pix := make([]protocol.Pixel, 64*64)
	for i := range pix {
		pix[i] = protocol.Pixel(i)
	}
	data, err := fb.EncodeCSCS(pix, 64, 64, protocol.CSCS12)
	if err != nil {
		b.Fatal(err)
	}
	msgs := []protocol.Message{
		&protocol.Set{Rect: protocol.Rect{W: 64, H: 64}, Pixels: pix},
		&protocol.Bitmap{Rect: protocol.Rect{W: 64, H: 64}, Bits: make([]byte, 8*64)},
		&protocol.Fill{Rect: protocol.Rect{W: 64, H: 64}, Color: 1},
		&protocol.Copy{Rect: protocol.Rect{W: 64, H: 64}, DstX: 8, DstY: 8},
		&protocol.CSCS{Src: protocol.Rect{W: 64, H: 64}, Dst: protocol.Rect{W: 64, H: 64}, Format: protocol.CSCS12, Data: data},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			if err := screen.Apply(m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(5*64*64*b.N)/b.Elapsed().Seconds()/1e6, "Mpx/s")
}

// BenchmarkFigure2_InputRates regenerates the input-event frequency CDFs
// and reports the >28 Hz tail (paper: <1%).
func BenchmarkFigure2_InputRates(b *testing.B) {
	c := benchCorpus()
	var tail float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure2(c)
		tail = 1 - series[0].CDF.At(28)
	}
	b.ReportMetric(tail*100, "pct>28Hz")
}

// BenchmarkFigure3_PixelsPerEvent regenerates the pixels-per-event CDFs and
// reports the fraction of events under 10 Kpx (paper: ~50%).
func BenchmarkFigure3_PixelsPerEvent(b *testing.B) {
	c := benchCorpus()
	var under float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure3(c)
		under = series[0].CDF.At(10_000)
	}
	b.ReportMetric(under*100, "pct<10Kpx")
}

// BenchmarkFigure4_CommandEfficiency regenerates the per-command
// compression decomposition and reports Photoshop's factor (paper: ~2x).
func BenchmarkFigure4_CommandEfficiency(b *testing.B) {
	c := benchCorpus()
	var comp float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure4(c)
		comp = rows[0].Compression
	}
	b.ReportMetric(comp, "photoshop-compression-x")
}

// BenchmarkFigure5_BytesPerEvent regenerates the bytes-per-event CDFs and
// reports the Photoshop >10 KB tail (paper: ~25%).
func BenchmarkFigure5_BytesPerEvent(b *testing.B) {
	c := benchCorpus()
	var tail float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure5(c)
		tail = 1 - series[0].CDF.At(10_000)
	}
	b.ReportMetric(tail*100, "pct>10KB")
}

// BenchmarkFigure6_ScaledBandwidth replays the Netscape trace over the five
// constrained fabrics and reports the 1 Mbps median added delay.
func BenchmarkFigure6_ScaledBandwidth(b *testing.B) {
	c := benchCorpus()
	var p50 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure6(c)
		p50 = series[2].Delays.Percentile(0.5)
	}
	b.ReportMetric(p50*1e3, "1Mbps-p50-ms")
}

// BenchmarkFigure7_ServiceTimes replays the command logs through the Sun
// Ray 1 cost model and reports the fraction of updates under 50 ms
// (paper: ~80%).
func BenchmarkFigure7_ServiceTimes(b *testing.B) {
	c := benchCorpus()
	var under float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := experiments.Figure7(c)
		under = series[0].CDF.At(0.050)
	}
	b.ReportMetric(under*100, "pct<50ms")
}

// BenchmarkFigure8_AvgBandwidth recomputes the X/SLIM/raw comparison and
// reports SLIM's Photoshop bandwidth.
func BenchmarkFigure8_AvgBandwidth(b *testing.B) {
	c := benchCorpus()
	var mbps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure8(c)
		mbps = rows[0].SlimMbps
	}
	b.ReportMetric(mbps, "photoshop-Mbps")
}

// BenchmarkFigure9_CPUSharing runs one processor-sharing sweep point
// (12 Netscape users + yardstick, 1 CPU, 20 simulated seconds) per
// iteration and reports the added latency (paper knee: ~100 ms at 12–14).
func BenchmarkFigure9_CPUSharing(b *testing.B) {
	c := benchCorpus()
	var added time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9(c, workload.Netscape, []int{12}, 20*time.Second)
		added = r.Points[0].AvgAdded
	}
	b.ReportMetric(float64(added.Milliseconds()), "added-ms-at-12-users")
}

// BenchmarkFigure10_SMPScaling runs the 4-CPU Netscape point at 10
// users/CPU per iteration (paper: multiprocessors pool better than 1 CPU).
func BenchmarkFigure10_SMPScaling(b *testing.B) {
	c := benchCorpus()
	var added time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := experiments.Figure10(c, []int{4}, []int{10}, 20*time.Second)
		added = rs[0].Points[0].AvgAdded
	}
	b.ReportMetric(float64(added.Milliseconds()), "added-ms-40users-4cpu")
}

// BenchmarkFigure11_IFSharing runs one shared-fabric point (130 Netscape
// users at paper-density traffic) per iteration and reports the yardstick
// RTT (paper knee: ~30 ms at 130–140 users).
func BenchmarkFigure11_IFSharing(b *testing.B) {
	c := benchCorpus()
	var rtt time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure11(c, workload.Netscape, []int{130}, 5, 15*time.Second)
		rtt = r.Points[0].AvgRTT
	}
	b.ReportMetric(float64(rtt.Microseconds())/1e3, "rtt-ms-at-130-users")
}

// BenchmarkFigure12_CaseStudies synthesizes both sites' day-long profiles
// per iteration and reports the peak aggregate network (paper: <5 Mbps).
func BenchmarkFigure12_CaseStudies(b *testing.B) {
	sites := experiments.Figure12Sites()
	var peak float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		peak = 0
		for j, site := range sites {
			for _, s := range experiments.Figure12(site, uint64(j)) {
				if s.NetMbps > peak {
					peak = s.NetMbps
				}
			}
		}
	}
	b.ReportMetric(peak, "peak-net-Mbps")
}

// BenchmarkMultimedia_MPEG2 streams real 720x480 frames at 6 bpp through
// the encode→decode path and reports the Sun Ray model's achieved rate
// (paper: 20 Hz, ~40 Mbps, server-bound).
func BenchmarkMultimedia_MPEG2(b *testing.B) {
	src := video.NewMPEG2(1)
	enc := core.NewEncoder(1280, 1024)
	screen := fb.New(1280, 1024)
	dst := protocol.Rect{X: 0, Y: 0, W: 720, H: 480}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := video.Stream(src, enc, screen, dst, protocol.CSCS6, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, mc := range experiments.Multimedia() {
		if mc.Name == "MPEG-II 720x480, 6bpp" {
			b.ReportMetric(mc.Report.AchievedHz, "sunray-Hz")
			b.ReportMetric(mc.Report.Mbps, "sunray-Mbps")
		}
	}
}

// BenchmarkMultimedia_NTSC streams 640x240 fields scaled 2x at the console
// (paper: 16–20 Hz single instance; 25–28 Hz console-bound at 4x).
func BenchmarkMultimedia_NTSC(b *testing.B) {
	src := video.NewNTSC(2)
	enc := core.NewEncoder(1280, 1024)
	screen := fb.New(1280, 1024)
	dst := protocol.Rect{X: 0, Y: 0, W: 640, H: 480}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := video.Stream(src, enc, screen, dst, protocol.CSCS8, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, mc := range experiments.Multimedia() {
		if mc.Name == "NTSC 4x 320x240" {
			b.ReportMetric(mc.Report.AchievedHz, "sunray-4x-Hz")
		}
	}
}

// BenchmarkMultimedia_Quake renders, palette-translates, and streams game
// frames at 5 bpp (paper: 18–21 Hz at 640x480; 28–34 Hz at 480x360).
func BenchmarkMultimedia_Quake(b *testing.B) {
	src := video.NewQuake(480, 360, 3)
	enc := core.NewEncoder(1280, 1024)
	screen := fb.New(1280, 1024)
	dst := protocol.Rect{X: 0, Y: 0, W: 480, H: 360}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := video.Stream(src, enc, screen, dst, protocol.CSCS5, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, mc := range experiments.Multimedia() {
		if mc.Name == "Quake 480x360, 5bpp" {
			b.ReportMetric(mc.Report.AchievedHz, "sunray-Hz")
		}
	}
}

// BenchmarkEncoderOverhead measures the §5.5 claim on a short session:
// protocol generation vs total display-path time (paper: 1.7%).
func BenchmarkEncoderOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess := workload.NewSession(workload.Netscape, i, 5)
		sess.Run(5 * time.Second)
	}
}

// BenchmarkExtension_VNCCompare replays a PIM session through the §8.3
// pull baseline at 10 Hz and reports VNC's mean update latency (SLIM's is
// microseconds on the same fabric).
func BenchmarkExtension_VNCCompare(b *testing.B) {
	var lat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.CompareVNC(workload.PIM, 10, 3, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		lat = r.VNCLatency.Mean() * 1e3
	}
	b.ReportMetric(lat, "vnc-latency-ms")
}

// BenchmarkExtension_LowBandwidth frames a PIM session both ways and
// reports the batching savings at 128 Kbps (§5.4's proposed optimization).
func BenchmarkExtension_LowBandwidth(b *testing.B) {
	var saved float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.LowBandwidth(workload.PIM, netsim.Rate128Kbps, 3, time.Minute)
		if err != nil {
			b.Fatal(err)
		}
		saved = 100 * r.BytesSaved
	}
	b.ReportMetric(saved, "pct-bytes-saved")
}

// BenchmarkExtension_WMTraffic drives the window system through a
// management session and reports COPY's share of moved pixels.
func BenchmarkExtension_WMTraffic(b *testing.B) {
	var share float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := experiments.WMTraffic(2, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		share = 100 * r.CopyShare
	}
	b.ReportMetric(share, "copy-pixel-share-pct")
}

// BenchmarkExtension_QoS runs the §9 scheduler ablation at one overload
// point and reports the latency saved by interactive priority.
func BenchmarkExtension_QoS(b *testing.B) {
	c := benchCorpus()
	var fair, prio time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := experiments.QoSAblation(c, workload.Netscape, []int{16}, 15*time.Second)
		fair, prio = rows[0].Fair, rows[0].Prio
	}
	b.ReportMetric(float64(fair.Milliseconds()), "fair-added-ms")
	b.ReportMetric(float64(prio.Milliseconds()), "priority-added-ms")
}

// --- Ablations (DESIGN.md: design choices worth ablating) ---

// BenchmarkAblation_EncoderAnalysis models a screen-scraping display
// driver (it sees only pixels, like VNC — no semantic text/fill hints) and
// compares content analysis against SET-only lowering. This isolates the
// value of the FILL/BITMAP detection that Figure 4 relies on.
func BenchmarkAblation_EncoderAnalysis(b *testing.B) {
	// Scrape a rendered session screen into pixel-only ops.
	sess := workload.NewSession(workload.Netscape, 0, 9)
	sess.Run(20 * time.Second)
	screen := sess.Encoder.FB
	var scraped []core.Op
	for y := 0; y+64 <= screen.H; y += 64 {
		for x := 0; x+64 <= screen.W; x += 64 {
			r := protocol.Rect{X: x, Y: y, W: 64, H: 64}
			scraped = append(scraped, core.ImageOp{Rect: r, Pixels: screen.ReadRect(r)})
		}
	}
	encode := func(analyze bool) int64 {
		e := core.NewEncoder(screen.W, screen.H)
		e.AnalyzeImages = analyze
		for _, op := range scraped {
			if _, err := e.Encode(op); err != nil {
				b.Fatal(err)
			}
		}
		return e.Stats.TotalWireBytes()
	}
	var with, without int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = encode(true)
		without = encode(false)
	}
	b.ReportMetric(float64(without)/float64(with), "set-only-blowup-x")
}

// BenchmarkAblation_CSCSFormats sweeps the five CSCS bit depths on the same
// frame, reporting bytes per frame at 5 bpp; quality-vs-bandwidth is the
// paper's §8.1 knob.
func BenchmarkAblation_CSCSFormats(b *testing.B) {
	src := video.NewMPEG2(7)
	frame := src.Next()
	formats := []protocol.CSCSFormat{protocol.CSCS16, protocol.CSCS12, protocol.CSCS8, protocol.CSCS6, protocol.CSCS5}
	var bytes5 int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range formats {
			data, err := fb.EncodeCSCS(frame.Pixels, frame.W, frame.H, f)
			if err != nil {
				b.Fatal(err)
			}
			if f == protocol.CSCS5 {
				bytes5 = len(data)
			}
		}
	}
	b.ReportMetric(float64(bytes5), "bytes-per-frame-5bpp")
}

// BenchmarkAblation_LossRecovery compares targeted Nack recovery (repaint
// of the affected-region union, computed from the sent log) against a
// blanket full-screen repaint (§2.2's recovery design space; either way,
// never stop-and-wait).
func BenchmarkAblation_LossRecovery(b *testing.B) {
	enc := core.NewEncoder(1280, 1024)
	for i := 0; i < 64; i++ {
		if _, err := enc.Encode(core.FillOp{
			Rect:  protocol.Rect{X: i * 8, Y: i * 8, W: 64, H: 64},
			Color: protocol.Pixel(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("nack-region", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Nack the most recent datagram, as a console would: recovery
			// itself emits datagrams, so chase the tail.
			seq := enc.LastSeq()
			damage, ok := enc.Damage(protocol.Nack{From: seq, To: seq})
			if !ok {
				b.Fatal("the latest sequence number aged out")
			}
			if len(enc.Repay(&damage, math.MaxInt)) == 0 {
				b.Fatal("no recovery")
			}
		}
	})
	b.Run("full-repaint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := enc.RepaintAll(); len(out) == 0 {
				b.Fatal("no repaint")
			}
		}
	})
}

// BenchmarkAblation_BandwidthAllocator exercises the §7 sorted-grant
// algorithm with a mixed video+GUI session population.
func BenchmarkAblation_BandwidthAllocator(b *testing.B) {
	con, err := slim.NewConsole(slim.ConsoleConfig{Width: 1280, Height: 1024, TotalBps: 100_000_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A video stream, two GUI sessions, and an audio stream contend.
		reqs := []protocol.BandwidthRequest{
			{SessionID: 1, Bps: 60_000_000},
			{SessionID: 2, Bps: 1_000_000},
			{SessionID: 3, Bps: 2_000_000},
			{SessionID: 4, Bps: 80_000_000},
		}
		for _, r := range reqs {
			rr := r
			if _, err := con.Handle(uint32(i), &rr, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
}
