package slim

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/incident"
	"slim/internal/obs/slo"
)

// gcStressLink interposes host stress between server and fabric: when
// armed, each display datagram is preceded by a forced GC cycle and a
// stall, and followed — after the console has painted — by a monitor
// sample, so the recorded GC windows genuinely cover each breach's causal
// chain the way a background sampler would cover a real stop-the-world
// pause.
type gcStressLink struct {
	*Fabric
	mon     *hostmon.Monitor
	delayNs atomic.Int64
}

func (l *gcStressLink) Send(console string, wire []byte) error {
	stressed := l.delayNs.Load() > 0
	if stressed && isDisplayDatagram(wire) {
		runtime.GC()
		time.Sleep(time.Duration(l.delayNs.Load()))
	}
	err := l.Fabric.Send(console, wire)
	if stressed {
		runtime.GC()
		l.mon.SampleNow() // the stall window now spans through the paint
	}
	return err
}

// TestPprofProfileWithHostMonitor: host telemetry leaves the process's one
// CPU profiler free, so the standard /debug/pprof/profile answers a
// gzipped profile while the monitor runs (slimd -hostmon, -incident-dir).
func TestPprofProfileWithHostMonitor(t *testing.T) {
	stop := StartHostMonitor()
	defer stop()
	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/profile = %d: %s", resp.StatusCode, body)
	}
	if len(body) < 2 || body[0] != 0x1f || body[1] != 0x8b {
		t.Fatalf("profile body is not gzip (%d bytes)", len(body))
	}
}

// TestHostStressEndToEnd drives a real session over a CLEAN link while the
// host runtime is under GC stress, and asserts the full hostmon/incident
// contract: the SLO engine leaves OK, the flight recorder attributes the
// breaches to HOST (not to an innocent pipeline stage), and the incident
// engine writes one complete, rate-limited bundle on the first degraded
// transition.
func TestHostStressEndToEnd(t *testing.T) {
	const (
		target = 30 * time.Millisecond
		stall  = 60 * time.Millisecond // injected per display datagram
	)
	kit := NewTelemetry()
	reg, rec := kit.Registry, kit.Flight
	rec.SetDumpGap(0)
	dumpDir := t.TempDir()
	rec.SetDumpDir(dumpDir)
	kit.SLO = slo.New(obs.Wall, slo.Config{
		Target: target,
		Short:  400 * time.Millisecond,
		Mid:    1600 * time.Millisecond,
		Long:   6400 * time.Millisecond,
	}).Instrument(reg)
	trk := kit.SLO

	// The monitor shares the recorder's clock so its stall windows overlap
	// ring events directly. Any GC pause counts as evidence; CPU-stall
	// detection is parked so the verdict kind is deterministic.
	mon := hostmon.New(kit.Clock, hostmon.Config{
		GCPauseThreshold:  time.Nanosecond,
		CPUStallThreshold: time.Hour,
	}).Instrument(reg)
	rec.SetHostEvidence(mon.Windows)
	defer rec.SetHostEvidence(nil)
	mon.SampleNow() // warm-up: the first tick's histogram delta is skipped
	mon.SampleNow()

	incDir := t.TempDir()
	eng := incident.New(incident.Config{
		Dir: incDir, MinGap: time.Minute, CPUProfile: 10 * time.Millisecond,
	}, incident.Sources{
		SLO:       trk,
		Monitor:   mon,
		Registry:  reg,
		FlightDir: dumpDir,
	}).Instrument(reg)
	eng.Start()
	defer eng.Close()

	fabric := NewFabric()
	link := &gcStressLink{Fabric: fabric, mon: mon}
	srv := NewServer(link, WithTerminalApp(),
		WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")
	con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240, Obs: reg, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}

	// Phase 1 — healthy host: keystrokes paint in microseconds.
	if err := fabric.TypeString("desk-1", "all quiet on the host"); err != nil {
		t.Fatal(err)
	}
	if st := trk.Status(); st.State != "OK" {
		t.Fatalf("healthy state = %s, want OK", st.State)
	}

	// Phase 2 — GC stress: every display datagram stalls behind forced GC
	// cycles. The link itself is clean (no loss, no delay injection on the
	// fabric), so any verdict blaming WIRE/ENCODE would be a
	// misattribution.
	link.delayNs.Store(int64(stall))
	deadline := time.Now().Add(5 * time.Second)
	var state string
	for time.Now().Before(deadline) {
		if err := fabric.TypeString("desk-1", "x"); err != nil {
			t.Fatal(err)
		}
		if state = trk.Status().State; state == "BREACHING" {
			break
		}
	}
	link.delayNs.Store(0)
	if state != "DEGRADED" && state != "BREACHING" {
		t.Fatalf("stressed state = %s, want DEGRADED or BREACHING", state)
	}

	// Attribution: at least 90% of the breach dumps must carry a HOST
	// verdict backed by gc evidence.
	dumps, err := filepath.Glob(filepath.Join(dumpDir, "flight-sess*.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no breach dumps in %s (err=%v)", dumpDir, err)
	}
	var host, total int
	for _, path := range dumps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		d, rerr := flight.ReadDump(f)
		f.Close()
		if rerr != nil {
			t.Fatalf("%s: %v", path, rerr)
		}
		if d.Verdict == nil {
			t.Fatalf("%s has no verdict", path)
		}
		total++
		if d.Verdict.Stage == flight.StageHost {
			host++
			if !strings.Contains(d.Verdict.HostKind, "gc") {
				t.Errorf("%s: HOST verdict without gc evidence: kind=%q", path, d.Verdict.HostKind)
			}
			if len(d.HostWindows) == 0 {
				t.Errorf("%s: HOST verdict but no host windows in the dump", path)
			}
		}
	}
	if frac := float64(host) / float64(total); frac < 0.9 {
		t.Errorf("HOST verdicts = %d/%d (%.0f%%), want >= 90%%", host, total, 100*frac)
	}
	// The SLO blame counters agree.
	snap := reg.Snapshot()
	if snap.Counters[`slim_slo_blame_total{stage="host"}`] != int64(host) {
		t.Errorf("blame counter = %d, want %d",
			snap.Counters[`slim_slo_blame_total{stage="host"}`], host)
	}
	// The monitor published its runtime series.
	if snap.Counters["slim_runtime_samples_total"] == 0 ||
		snap.Counters[`slim_runtime_host_windows_total{kind="gc"}`] == 0 {
		t.Error("hostmon series not published")
	}

	// Incident bundle: the first OK->DEGRADED transition wrote exactly one
	// (MinGap keeps later transitions rate-limited), and it is complete.
	var bundles []*incident.Manifest
	bundleDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(bundleDeadline) {
		bundles, _ = incident.List(incDir)
		if len(bundles) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(bundles) != 1 {
		t.Fatalf("bundles = %d, want exactly 1 (rate-limited)", len(bundles))
	}
	m := bundles[0]
	if m.Trigger != "slo" || !strings.HasPrefix(m.Reason, "slo:OK->") {
		t.Errorf("bundle trigger = %s reason = %s, want slo OK-> transition", m.Trigger, m.Reason)
	}
	bdir := filepath.Join(incDir, m.Name)
	for _, want := range []string{
		"manifest.json", "cpu.pprof", "heap.pprof", "goroutines.txt", "slo.json",
		"hostmon.json", "metrics.prom",
	} {
		if _, err := os.Stat(filepath.Join(bdir, want)); err != nil {
			t.Errorf("bundle missing %s: %v", want, err)
		}
	}
	// At least one flight dump rode along, and it re-summarizes offline
	// exactly the way `slimtrace explain` does.
	flightCopies, _ := filepath.Glob(filepath.Join(bdir, "flight", "flight-sess*.json"))
	if len(flightCopies) == 0 {
		t.Error("bundle carries no flight dumps")
	}
	if m2, err := incident.ReadManifest(bdir); err != nil || m2.Name != m.Name {
		t.Errorf("ReadManifest: %+v, %v", m2, err)
	}
	// No staging litter behind the published bundle.
	ents, _ := os.ReadDir(incDir)
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), ".stage-") {
			t.Errorf("staging dir %s left behind", ent.Name())
		}
	}

	// Terminate evicts the session's series.
	if err := srv.Terminate("alice"); err != nil {
		t.Fatal(err)
	}
	if st := trk.Status(); len(st.Sessions) != 0 {
		t.Errorf("sessions after Terminate = %+v, want none", st.Sessions)
	}
}
