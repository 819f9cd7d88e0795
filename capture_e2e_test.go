package slim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/netqual"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// The capture end-to-end: the overload scenario runs with a wire-capture
// ring tapped into its transport, the ring spools a .slimcap stream, and
// `slimtrace explain`'s decode path (ReadHeader, ReadRecord → BuildReport)
// reconstructs the paper's Tables 2-3 shape — per-command counts, bytes,
// pixels, and bandwidth in both directions — from the captured datagrams
// alone. This is the tentpole's acceptance check: wire-level attribution
// survives the full spool/read round trip on realistic mixed
// interactive+video traffic. The downstream table is read from the run
// without a governor, as the paper measured it: governed, a video frame
// (about 140 KB of CSCS) is larger than any bucket admits and is repainted
// from the frame buffer instead. The upstream table is read from the
// governed run, whose consoles issue grants. The two runs share nothing
// and run side by side.
func TestOverloadCaptureReproducesCommandMix(t *testing.T) {
	var reps [2]*capture.Report // without a governor, with one
	t.Run("runs", func(t *testing.T) {
		for i := range reps {
			t.Run(fmt.Sprintf("governed=%v", i == 1), func(t *testing.T) {
				t.Parallel()
				// Spool exactly as slim.StartCapture does: header, then
				// records. The harness runs on virtual time, so the capture
				// is sim-domain with no wall epoch.
				w := &reportWriter{}
				if err := capture.WriteHeader(w, obs.DomainSim, time.Time{}); err != nil {
					t.Fatal(err)
				}
				run := runOverload(t, i == 1, NewTelemetry(), w)
				if run.captured == 0 {
					t.Fatal("ring captured nothing")
				}
				rep := w.report()
				if h := rep.Header; h.Domain != obs.DomainSim || !h.Epoch.IsZero() {
					t.Errorf("header = %+v, want sim domain without wall epoch", h)
				}
				if rep.Records != run.captured {
					t.Errorf("read %d records, ring spooled %d", rep.Records, run.captured)
				}
				if rep.Undecoded != 0 {
					t.Errorf("%d captured datagrams did not decode", rep.Undecoded)
				}
				if rep.Duration <= 0 {
					t.Error("report has no time span")
				}
				reps[i] = rep
			})
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	rep, governed := reps[0], reps[1]

	rows := func(rs []capture.Row) map[string]capture.Row {
		m := make(map[string]capture.Row, len(rs))
		for _, r := range rs {
			m[r.Label] = r
		}
		return m
	}
	down, up := rows(rep.Down), rows(governed.Up)

	// Tables 2-3 shape, downstream: the video sessions dominate bytes via
	// CSCS, the terminals echo keystrokes via pixel commands, and every
	// pixel-bearing row carries a sane wire cost per pixel.
	cscs, ok := down[protocol.TypeCSCS.String()]
	if !ok {
		t.Fatalf("no CSCS row in downstream table: %+v", rep.Down)
	}
	if cscs.Count == 0 || cscs.Pixels == 0 {
		t.Fatalf("CSCS row empty: %+v", cscs)
	}
	// Table 3's signature: video traffic dominates the downstream byte
	// volume, and the per-pixel wire cost is attributed.
	if cscs.Bytes <= rep.DownBytes/2 {
		t.Errorf("CSCS carries %d of %d downstream bytes, want the majority",
			cscs.Bytes, rep.DownBytes)
	}
	if cscs.BytesPerPixel() <= 0 {
		t.Errorf("CSCS bytes/pixel = %.2f, want > 0", cscs.BytesPerPixel())
	}
	if rep.Bps(cscs) <= 0 {
		t.Error("CSCS bandwidth is zero")
	}
	var interactivePixels int64
	for _, label := range []string{
		protocol.TypeSet.String(), protocol.TypeBitmap.String(),
		protocol.TypeFill.String(), protocol.TypeCopy.String(),
	} {
		interactivePixels += down[label].Pixels
	}
	if interactivePixels == 0 {
		t.Errorf("no interactive pixel commands in downstream table: %+v", rep.Down)
	}

	// Upstream: the console control plane — small, but present and
	// attributed. Under the governor every console issues bandwidth
	// grants, and the lossy shrunken link forces NACK recovery.
	if len(up) == 0 {
		t.Fatal("no upstream rows")
	}
	if _, ok := up[protocol.TypeBandwidthGrant.String()]; !ok {
		t.Errorf("no bandwidth-grant row in upstream table: %+v", governed.Up)
	}
	for _, r := range []*capture.Report{rep, governed} {
		if r.UpBytes >= r.DownBytes {
			t.Errorf("upstream %d bytes outweighs downstream %d", r.UpBytes, r.DownBytes)
		}
	}

	// The rendered table is what `slimtrace explain` prints: both
	// directions, the command column, and a bandwidth column.
	for r, rowWant := range map[*capture.Report]string{rep: protocol.TypeCSCS.String(), governed: protocol.TypeBandwidthGrant.String()} {
		var out strings.Builder
		if err := r.WriteTable(&out); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"server → console", "console → server", "command", "bits/s", rowWant} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("rendered table missing %q:\n%s", want, out.String())
			}
		}
	}
}

// reportWriter reads a .slimcap stream as it is written — a header, then
// whole records in each write, as Ring.SpoolTo writes them — and sums each
// write's BuildReport, so a run's capture is never held whole (the
// deep-bucket overload run spools over 100 MB).
type reportWriter struct {
	rep         capture.Report
	rows        [2]map[string]*capture.Row // by direction: down, up
	first, last time.Duration
}

func (w *reportWriter) Write(p []byte) (int, error) {
	r := bytes.NewReader(p)
	if w.rows[0] == nil {
		h, err := capture.ReadHeader(r)
		if err != nil {
			return 0, err
		}
		w.rep.Header, w.rows = h, [2]map[string]*capture.Row{{}, {}}
	}
	var recs []capture.Record
	for r.Len() > 0 {
		rec, err := capture.ReadRecord(r)
		if err != nil {
			return 0, err
		}
		if w.rep.Records+len(recs) == 0 {
			w.first = rec.T
		}
		w.first, w.last = min(w.first, rec.T), max(w.last, rec.T)
		recs = append(recs, rec)
	}
	part := capture.BuildReport(w.rep.Header, recs)
	w.rep.Records += part.Records
	w.rep.DownBytes += part.DownBytes
	w.rep.UpBytes += part.UpBytes
	w.rep.Undecoded += part.Undecoded
	for dir, rows := range [2][]capture.Row{part.Down, part.Up} {
		for _, row := range rows {
			sum := w.rows[dir][row.Label]
			if sum == nil {
				sum = &capture.Row{Label: row.Label}
				w.rows[dir][row.Label] = sum
			}
			sum.Count += row.Count
			sum.Bytes += row.Bytes
			sum.Pixels += row.Pixels
		}
	}
	return len(p), nil
}

// report is the sum of everything written so far.
func (w *reportWriter) report() *capture.Report {
	rep := w.rep
	rep.Duration = w.last - w.first
	for dir, rows := range w.rows {
		for _, row := range rows {
			if dir == 0 {
				rep.Down = append(rep.Down, *row)
			} else {
				rep.Up = append(rep.Up, *row)
			}
		}
	}
	return &rep
}

// TestFramedCaptureReadsPerCommand: a capture of traffic framed the way
// the UDP endpoint frames it is still evidence about commands. The
// .slimcap round trip yields the Tables 2-3 rows the encoder's own
// per-command accounting has — every member of every frame, at its
// plain-framed size — and netqual.Replay of the records reproduces the
// live path tracker exactly (sim domain, so timestamps line up).
func TestFramedCaptureReadsPerCommand(t *testing.T) {
	kit := telemetry.New(obs.DomainSim)
	kit.NetQual.SetEnabled(true)
	ring := capture.NewRing(1 << 14)
	ring.SetEnabled(true)
	ff := &framedFabric{Fabric: NewFabric()}
	ff.SetCapture(ring)
	app := newScrollApp(t)
	srv := NewServer(ff, func(string, int, int) Application { return app }, WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")
	con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, TileCacheEntries: DefaultTileCacheEntries, Obs: kit.Registry})
	if err != nil {
		t.Fatal(err)
	}
	ff.Attach("desk-1", con, srv)

	now := time.Duration(0)
	tick := func(d time.Duration) {
		t.Helper()
		now += d
		kit.Clock.Set(now)
		ff.SetClock(now)
		if err := ff.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ff.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	tick(time.Second)
	for i := 0; i < 1+2*scrollCycle; i++ {
		if err := ff.SendKey("desk-1", 'j', true); err != nil {
			t.Fatal(err)
		}
		tick(time.Duration(30+i%7) * time.Millisecond)
	}
	tick(2 * time.Second)
	if ff.frames < scrollCycle {
		t.Fatalf("only %d frames crossed the fabric", ff.frames)
	}

	var buf bytes.Buffer
	if err := capture.WriteHeader(&buf, obs.DomainSim, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.SpoolTo(&buf); err != nil {
		t.Fatal(err)
	}
	h, recs, err := capture.ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil || ring.Drops() != 0 {
		t.Fatalf("read back: %v (ring shed %d records)", err, ring.Drops())
	}

	sess := srv.SessionByUser("alice")
	rep := capture.BuildReport(h, recs)
	if rep.Undecoded != 0 {
		t.Errorf("%d captured datagrams did not decode", rep.Undecoded)
	}
	down := map[string]capture.Row{}
	for _, r := range rep.Down {
		down[r.Label] = r
	}
	for typ, want := range sess.Encoder.Stats.PerType {
		if got := down[typ.String()]; got.Count != want.Commands || got.Bytes != want.WireBytes || got.Pixels != want.Pixels {
			t.Errorf("%v row: %d commands, %d B, %d px; the encoder emitted %d, %d B, %d px",
				typ, got.Count, got.Bytes, got.Pixels, want.Commands, want.WireBytes, want.Pixels)
		}
	}
	if cp := down[protocol.TypeCachePaint.String()]; cp.Count < 96*scrollCycle {
		t.Errorf("CACHE_PAINT row counts %d commands; the warmed bounce alone is %d", cp.Count, 96*scrollCycle)
	}

	live := kit.NetQual.Lookup(sess.ID)
	paths := netqual.Replay(recs)
	if len(paths.Paths) != 1 || paths.Undecodable != 0 {
		t.Fatalf("replay = %d paths, %d undecodable; want desk-1 alone", len(paths.Paths), paths.Undecodable)
	}
	got := paths.Paths[0]
	if live.Samples() == 0 || got.Samples() != live.Samples() || got.SRTT() != live.SRTT() || got.RTTVar() != live.RTTVar() {
		t.Errorf("replayed RTT: %d samples srtt %v rttvar %v; live: %d samples srtt %v rttvar %v",
			got.Samples(), got.SRTT(), got.RTTVar(), live.Samples(), live.SRTT(), live.RTTVar())
	}
	gotPkts, gotBytes := got.Sent()
	if pkts, nbytes := live.Sent(); gotPkts != pkts || gotBytes != nbytes {
		t.Errorf("replay counted %d commands (%d B) sent, the server %d (%d B)", gotPkts, gotBytes, pkts, nbytes)
	}
	if got.LossLongAt(now) != live.LossLongAt(now) || got.Jitter() != live.Jitter() {
		t.Errorf("replayed loss %.4f jitter %v, live %.4f %v", got.LossLongAt(now), got.Jitter(), live.LossLongAt(now), live.Jitter())
	}
}
