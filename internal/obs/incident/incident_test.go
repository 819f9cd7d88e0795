package incident

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/slo"
)

// sloCfg compresses the SLO windows so a handful of virtual events
// drives the full state machine.
func sloCfg() slo.Config {
	return slo.Config{
		Target: 100 * time.Millisecond,
		Budget: 0.10,
		Short:  time.Second,
		Mid:    4 * time.Second,
		Long:   16 * time.Second,
	}
}

// newTestEngine wires a full source set against a temp dir: SLO tracker
// (sim domain so tests drive virtual time), host monitor, flight dumps,
// and a capture spool.
func newTestEngine(t testing.TB, cfg Config) (*Engine, *slo.Tracker, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry(obs.DomainWall)
	trk := slo.New(obs.NewClock(obs.DomainSim), sloCfg())
	mon := hostmon.New(obs.Wall, hostmon.Config{Interval: 100 * time.Millisecond})
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	// A tiny capture spool with three records.
	capPath := filepath.Join(t.TempDir(), "wire.slimcap")
	f, err := os.Create(capPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := capture.WriteHeader(f, obs.DomainWall, time.Now()); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 1; i <= 3; i++ {
		buf = capture.AppendRecord(buf[:0], capture.Record{
			T: time.Duration(i) * time.Millisecond, Dir: capture.DirDown,
			Flow: 1, Size: 100, Console: "c1", Wire: []byte{1, 2, 3},
		})
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	// A flight dump directory with two fake dumps.
	fdir := t.TempDir()
	for _, n := range []string{"flight-sess1-1.json", "flight-sess1-2.json"} {
		if err := os.WriteFile(filepath.Join(fdir, n), []byte(`{"session":1}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e := New(cfg, Sources{
		SLO:         trk,
		Monitor:     mon,
		Registry:    reg,
		FlightDir:   fdir,
		CaptureFile: capPath,
	}).Instrument(reg)
	return e, trk, reg
}

// TestTriggerWritesCompleteBundle: a manual trigger produces a complete,
// versioned bundle whose manifest matches the files on disk.
func TestTriggerWritesCompleteBundle(t *testing.T) {
	e, _, reg := newTestEngine(t, Config{CPUProfile: 50 * time.Millisecond})
	m, err := e.Trigger("unit-test", "manual")
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != BundleVersion || m.Trigger != "manual" || m.Reason != "unit-test" {
		t.Fatalf("manifest header = %+v", m)
	}
	bdir := filepath.Join(e.Dir(), m.Name)
	for _, want := range []string{
		"manifest.json", "heap.pprof", "goroutines.txt", "slo.json",
		"hostmon.json", "metrics.prom",
		"capture-tail.slimcap", "flight/flight-sess1-1.json", "flight/flight-sess1-2.json",
	} {
		if _, err := os.Stat(filepath.Join(bdir, want)); err != nil {
			t.Errorf("bundle missing %s: %v", want, err)
		}
		if want != "manifest.json" {
			if _, ok := m.Files[want]; !ok {
				t.Errorf("manifest does not list %s (files=%v errors=%v)", want, m.Files, m.Errors)
			}
		}
	}
	// cpu.pprof is the bundle's own capture; tolerate an environment where
	// profiling is unavailable but require the error to be declared. The
	// summary names the command that reads the profile when it exists.
	var summary strings.Builder
	if err := WriteSummary(&summary, bdir); err != nil {
		t.Fatal(err)
	}
	readProfile := "go tool pprof -top " + filepath.Join(bdir, "cpu.pprof")
	if _, err := os.Stat(filepath.Join(bdir, "cpu.pprof")); err != nil {
		if _, noted := m.Errors["cpu.pprof"]; !noted {
			t.Error("cpu.pprof absent and not in error map")
		}
	} else if !strings.Contains(summary.String(), readProfile) {
		t.Errorf("summary does not name %q:\n%s", readProfile, summary.String())
	}
	// The capture tail must be a valid .slimcap with our three records.
	cf, err := os.Open(filepath.Join(bdir, "capture-tail.slimcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	_, recs, err := capture.ReadCapture(cf)
	if err != nil || len(recs) != 3 {
		t.Fatalf("capture tail: %d records, err=%v", len(recs), err)
	}
	// Manifest re-read from disk matches.
	m2, err := ReadManifest(bdir)
	if err != nil || m2.Name != m.Name {
		t.Fatalf("ReadManifest: %+v, %v", m2, err)
	}
	if got := reg.Snapshot().Counters["slim_incident_bundles_total"]; got != 1 {
		t.Errorf("bundle counter = %d, want 1", got)
	}
	// No staging litter.
	ents, _ := os.ReadDir(e.Dir())
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), ".stage-") {
			t.Errorf("staging dir %s left behind", ent.Name())
		}
	}
}

// TestRateLimitAndRotation: triggers inside MinGap are dropped; the
// bundle directory is bounded at MaxBundles.
func TestRateLimitAndRotation(t *testing.T) {
	e, _, reg := newTestEngine(t, Config{
		MinGap: time.Hour, MaxBundles: 2, CPUProfile: time.Millisecond,
	})
	if _, err := e.Trigger("one", "manual"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Trigger("two", "manual"); err != ErrRateLimited {
		t.Fatalf("second trigger err = %v, want ErrRateLimited", err)
	}
	if got := reg.Snapshot().Counters["slim_incident_dropped_total"]; got != 1 {
		t.Errorf("dropped counter = %d, want 1", got)
	}
	// Zero the gap and write three more: rotation keeps the newest 2.
	e.cfg.MinGap = time.Nanosecond
	for _, r := range []string{"two", "three", "four"} {
		time.Sleep(2 * time.Millisecond) // distinct timestamps for naming
		if _, err := e.Trigger(r, "manual"); err != nil {
			t.Fatal(err)
		}
	}
	bundles, err := List(e.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("bundles after rotation = %d, want 2", len(bundles))
	}
	if bundles[0].Reason != "three" || bundles[1].Reason != "four" {
		t.Errorf("kept bundles = %s, %s; want three, four", bundles[0].Reason, bundles[1].Reason)
	}
}

// TestSLOTransitionTriggers: driving the tracker into DEGRADED writes a
// bundle through the subscription, tagged with the transition.
func TestSLOTransitionTriggers(t *testing.T) {
	e, trk, _ := newTestEngine(t, Config{CPUProfile: time.Millisecond})
	e.Start()
	defer e.Close()
	s := trk.Session(1, "alice")
	now := time.Duration(0)
	for i := 0; i < 40; i++ { // clean baseline
		s.ObserveAt(now, 10*time.Millisecond)
		now += 100 * time.Millisecond
	}
	for i := 0; i < 43; i++ { // storm: every 2nd breaches
		lat := 10 * time.Millisecond
		if i%2 == 0 {
			lat = 500 * time.Millisecond
		}
		s.ObserveAt(now, lat)
		now += 100 * time.Millisecond
	}
	var bundles []*Manifest
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		bundles, _ = List(e.Dir())
		if len(bundles) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(bundles) == 0 {
		t.Fatal("no bundle written after SLO degradation")
	}
	if bundles[0].Trigger != "slo" || !strings.HasPrefix(bundles[0].Reason, "slo:OK->") {
		t.Fatalf("bundle = %+v, want slo OK-> transition", bundles[0])
	}
}

// TestDisabled: a disabled engine refuses triggers.
func TestDisabled(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{})
	e.SetEnabled(false)
	if _, err := e.Trigger("x", "manual"); err != ErrDisabled {
		t.Fatalf("err = %v, want ErrDisabled", err)
	}
	if bundles, _ := List(e.Dir()); len(bundles) != 0 {
		t.Error("disabled engine wrote a bundle")
	}
}

// TestHandler: GET lists, POST triggers, rate-limited POST is 429.
func TestHandler(t *testing.T) {
	e, _, _ := newTestEngine(t, Config{MinGap: time.Hour, CPUProfile: time.Millisecond})
	srv := httptest.NewServer(obs.JSONHandler(e.Status))
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"?trigger=via-http", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Reason != "via-http" || m.Trigger != "manual" {
		t.Fatalf("manifest = %+v", m)
	}

	resp, err = srv.Client().Post(srv.URL, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited POST status = %d, want 429", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var doc StatusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !doc.Enabled || len(doc.Bundles) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
}

// TestStartCloseLifecycle: Start/Close is leak-free and restartable, and
// Close detaches the SLO subscription.
func TestStartCloseLifecycle(t *testing.T) {
	e, trk, _ := newTestEngine(t, Config{})
	e.Start()
	e.Close()
	e.Close() // idempotent
	e.Start()
	e.Close()
	// After Close, SLO transitions must not reach the engine: drive a
	// degradation and verify no bundle appears.
	s := trk.Session(1, "bob")
	now := time.Duration(0)
	for i := 0; i < 80; i++ {
		s.ObserveAt(now, 500*time.Millisecond)
		now += 100 * time.Millisecond
	}
	time.Sleep(20 * time.Millisecond)
	if bundles, _ := List(e.Dir()); len(bundles) != 0 {
		t.Errorf("closed engine wrote %d bundles", len(bundles))
	}
}

// TestCaptureTailStreamsALongSpool: the bundle's capture tail is the last
// CaptureTail records of a spool many times that long (streamed through a
// ring of that many records, not loaded whole), and a spool whose last
// record is mid-write still yields a valid .slimcap plus a note.
func TestCaptureTailStreamsALongSpool(t *testing.T) {
	const tail, records, wireLen = 64, 200 * 64, 1200
	spool := filepath.Join(t.TempDir(), "long.slimcap")
	f, err := os.Create(spool)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Unix(1700000000, 0)
	if err := capture.WriteHeader(f, obs.DomainWall, epoch); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	wire := make([]byte, wireLen)
	for i := 0; i < records; i++ {
		buf = capture.AppendRecord(buf[:0], capture.Record{
			T: time.Duration(i) * time.Millisecond, Dir: capture.DirDown,
			Flow: -1, Size: wireLen, Console: "c1", Wire: wire,
		})
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Write(buf[:len(buf)/2]); err != nil { // a record mid-write
		t.Fatal(err)
	}
	f.Close()

	e := New(Config{Dir: t.TempDir(), CaptureTail: tail}, Sources{CaptureFile: spool})
	stage := t.TempDir()
	m := &Manifest{Files: map[string]int64{}, Errors: map[string]string{}}
	e.captureTail(stage, m)

	if note := m.Errors[captureTailName+".note"]; !strings.Contains(note, "truncated tail") {
		t.Errorf("no truncation note for a spool cut mid-record: %v", m.Errors)
	}
	if _, failed := m.Errors[captureTailName]; failed {
		t.Fatalf("capture tail failed: %v", m.Errors)
	}
	cf, err := os.Open(filepath.Join(stage, captureTailName))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	h, recs, err := capture.ReadCapture(cf)
	if err != nil {
		t.Fatalf("tail is not a valid .slimcap: %v", err)
	}
	if h.Domain != obs.DomainWall || !h.Epoch.Equal(epoch) {
		t.Errorf("tail header = %+v, want the spool's", h)
	}
	if len(recs) != tail {
		t.Fatalf("tail holds %d records, want %d", len(recs), tail)
	}
	for i, rec := range recs {
		if want := time.Duration(records-tail+i) * time.Millisecond; rec.T != want || len(rec.Wire) != wireLen {
			t.Fatalf("tail[%d] at %v with %d wire bytes, want the spool's record at %v", i, rec.T, len(rec.Wire), want)
		}
	}
}
