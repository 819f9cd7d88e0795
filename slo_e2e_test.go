package slim

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/slo"
)

// degradedTransport interposes a controllable bad link between server and
// fabric: when armed, each display datagram (first transmissions and
// retransmits alike) is held for the configured delay before delivery —
// loss injection itself lives in the fabric (SetLoss), so NACK recovery
// takes the same slow wire the original paint did.
type degradedTransport struct {
	*Fabric
	delayNs atomic.Int64
}

func (d *degradedTransport) Send(console string, wire []byte) error {
	if ns := d.delayNs.Load(); ns > 0 && isDisplayDatagram(wire) {
		time.Sleep(time.Duration(ns))
	}
	return d.Fabric.Send(console, wire)
}

// sloStatus scrapes and parses the tracker's /debug/slo endpoint.
func sloStatus(t *testing.T, ts *httptest.Server) slo.Status {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st slo.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/debug/slo is not valid JSON: %v", err)
	}
	return st
}

// TestSLOEndToEnd drives a real session over a link that degrades and
// recovers, and asserts the whole SLO-engine contract on /debug/slo: the
// fleet state walks OK → DEGRADED → BREACHING as the short/mid windows
// fill and drain, and the breaches caused by injected loss and wire delay
// are attributed to the WIRE stage — in the live blame counters and in the
// breach dumps alike.
func TestSLOEndToEnd(t *testing.T) {
	const (
		target = 50 * time.Millisecond
		delay  = 80 * time.Millisecond // per display datagram when degraded
	)
	kit := NewTelemetry()
	reg, rec := kit.Registry, kit.Flight
	rec.SetDumpGap(0) // every breach dumps: the blame table wants them all
	dir := t.TempDir()
	rec.SetDumpDir(dir)
	// Compressed windows so the three states are reachable in seconds: a
	// 400 ms detection window, 1.6 s confirmation, 6.4 s memory.
	kit.SLO = slo.New(obs.Wall, slo.Config{
		Target: target,
		Short:  400 * time.Millisecond,
		Mid:    1600 * time.Millisecond,
		Long:   6400 * time.Millisecond,
	}).Instrument(reg)
	trk := kit.SLO

	fabric := NewFabric()
	link := &degradedTransport{Fabric: fabric}
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
	sess := srv.SessionByUser("alice")
	if sess == nil || sess.Telemetry().SLO == nil {
		t.Fatal("session not SLO-instrumented")
	}

	ts := httptest.NewServer(obs.JSONHandler(func(*http.Request) (any, error) { return trk.Status(), nil }))
	defer ts.Close()

	// Phase 1 — healthy link: keystrokes paint in microseconds.
	if err := fabric.TypeString("desk-1", "all quiet on the fabric"); err != nil {
		t.Fatal(err)
	}
	if st := sloStatus(t, ts); st.State != "OK" {
		t.Fatalf("healthy state = %s, want OK (windows %+v)", st.State, st.Windows)
	}

	// Phase 2 — a short outage, then recovery: every display datagram slows
	// to ~delay and every second one is lost outright, forcing NACK
	// retransmits over the same slow wire.
	degrade := func(on bool) {
		if on {
			link.delayNs.Store(int64(delay))
			fabric.SetLoss(2)
		} else {
			link.delayNs.Store(0)
			fabric.SetLoss(0)
		}
	}
	degrade(true)
	if err := fabric.TypeString("desk-1", "ouch"); err != nil {
		t.Fatal(err)
	}
	degrade(false)
	// Clean traffic until the short window drains while the mid window
	// still remembers the outage: DEGRADED, the "too young or already
	// over" state.
	deadline := time.Now().Add(3 * time.Second)
	var st slo.Status
	for {
		if err := fabric.TypeString("desk-1", "x"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		if st = sloStatus(t, ts); st.State == "DEGRADED" || time.Now().After(deadline) {
			break
		}
	}
	if st.State != "DEGRADED" {
		t.Fatalf("post-outage state = %s, want DEGRADED (windows %+v)", st.State, st.Windows)
	}

	// Phase 3 — sustained outage: breaches fill short AND mid windows.
	degrade(true)
	if err := fabric.TypeString("desk-1", "still breaching..."); err != nil {
		t.Fatal(err)
	}
	st = sloStatus(t, ts)
	degrade(false)
	if st.State != "BREACHING" {
		t.Fatalf("sustained-outage state = %s, want BREACHING (windows %+v)", st.State, st.Windows)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].User != "alice" {
		t.Fatalf("sessions = %+v, want alice", st.Sessions)
	}
	if st.Sessions[0].State != "BREACHING" {
		t.Errorf("per-session state = %s, want BREACHING", st.Sessions[0].State)
	}

	// Attribution, via the live blame counters: every breach happened on a
	// slow or lossy wire, so at least 90% of the blame must be WIRE.
	var wire, total int64
	for stage, n := range st.Blame {
		total += n
		if stage == "wire" {
			wire = n
		}
	}
	if total == 0 {
		t.Fatal("no breach blame recorded")
	}
	if frac := float64(wire) / float64(total); frac < 0.9 {
		t.Errorf("WIRE blame = %d/%d (%.0f%%), want >= 90%% (blame %v)",
			wire, total, 100*frac, st.Blame)
	}
	if st.Sessions[0].Blame["wire"] != wire {
		t.Errorf("session blame %v does not match fleet %v", st.Sessions[0].Blame, st.Blame)
	}

	// Attribution, via the dumps: the committed verdicts must tell the same
	// story, with loss evidence on the chains whose datagrams vanished.
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-sess*.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no breach dumps in %s (err=%v)", dir, err)
	}
	var blame flight.Blame
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
		blame.Add(d, false)
	}
	table := blame.Total
	if table.Share(flight.StageWire) < 0.9 {
		t.Errorf("dump WIRE share = %.0f%% of %d, want >= 90%%",
			100*table.Share(flight.StageWire), table.Total)
	}
	if table.Loss == 0 {
		t.Error("no dump carries loss evidence despite injected drops")
	}

	// The registry view agrees: breach counters moved, burn gauges are live.
	snap := reg.Snapshot()
	if snap.Counters["slim_slo_events_total"] == 0 || snap.Counters["slim_slo_breaches_total"] == 0 {
		t.Error("slo counters not published")
	}
	if snap.Counters[`slim_slo_blame_total{stage="wire"}`] != wire {
		t.Errorf("blame counter = %d, want %d",
			snap.Counters[`slim_slo_blame_total{stage="wire"}`], wire)
	}

	// Terminate evicts the session from /debug/slo.
	if err := srv.Terminate("alice"); err != nil {
		t.Fatal(err)
	}
	if st := sloStatus(t, ts); len(st.Sessions) != 0 {
		t.Errorf("sessions after Terminate = %+v, want none", st.Sessions)
	}
}
