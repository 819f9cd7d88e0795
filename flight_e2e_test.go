package slim

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"slim/internal/netsim"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
)

// slowTransport interposes a simulated slow link between server and
// fabric: once armed, each display datagram is held for the link's
// serialization time before delivery, so a keystroke's paint arrives later
// than the paper's 150 ms annoyance bound and the flight recorder must
// notice. Control traffic is never delayed (boot stays fast).
type slowTransport struct {
	*Fabric
	link  netsim.Link
	armed atomic.Bool
}

func (s *slowTransport) Send(console string, wire []byte) error {
	if s.armed.Load() && isDisplayDatagram(wire) {
		time.Sleep(s.link.SerializeTime(len(wire)))
	}
	return s.Fabric.Send(console, wire)
}

// TestFlightBreachEndToEnd drives a real session through the in-process
// fabric with an induced slow link, and asserts the whole flight-recorder
// contract: the >150 ms paint trips a breach, the breach writes a dump
// whose events form a causal chain linking the input to its paint via
// protocol sequence numbers, and /debug/trace serves the same events as
// loadable Perfetto JSON.
func TestFlightBreachEndToEnd(t *testing.T) {
	kit := NewTelemetry()
	reg, rec := kit.Registry, kit.Flight
	dir := t.TempDir()
	rec.SetDumpDir(dir)

	fabric := NewFabric()
	// 2400 bps: a ~60-byte glyph datagram plus frame overhead serializes
	// in ~340 ms, comfortably past the 150 ms default SLO target.
	slow := &slowTransport{Fabric: fabric, link: netsim.Link{Bps: 2400}}
	srv := NewServer(slow, WithTerminalApp(), WithTelemetry(kit))
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
	if sess == nil || sess.Telemetry().Flight == nil {
		t.Fatal("session flight log not wired")
	}

	// One keystroke over the slow link. The release renders nothing, so
	// only the press can breach.
	slow.armed.Store(true)
	if err := srv.Handle("desk-1", &protocol.KeyEvent{Code: 'a', Down: true}, 0); err != nil {
		t.Fatal(err)
	}
	slow.armed.Store(false)

	if n := rec.BreachCount(); n < 1 {
		t.Fatalf("breach count = %d, want >= 1", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["slim_flight_breaches_total"] < 1 {
		t.Error("breach counter not published to the registry")
	}
	if snap.Gauges["slim_flight_last_breach_unix_ms"] <= 0 {
		t.Error("last-breach gauge not published")
	}

	// The dump must exist and hold the causal chain.
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-sess*.json"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no breach dump written to %s (err=%v)", dir, err)
	}
	f, err := os.Open(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	d, err := flight.ReadDump(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d.Session != sess.ID {
		t.Errorf("dump session = %d, want %d", d.Session, sess.ID)
	}
	if d.LatencyNs < d.ThresholdNs {
		t.Errorf("dump latency %d below threshold %d", d.LatencyNs, d.ThresholdNs)
	}

	// Walk the chain: the keystroke's input-chain ID must connect INPUT →
	// ENCODE → TX → RX → PAINT, with the encode's sequence number linking
	// the stages across the server/console boundary.
	var chain uint64
	for _, ev := range d.Events {
		if ev.Kind == flight.EvInput && ev.Cmd == protocol.TypeKey && ev.A == 'a' {
			chain = ev.Cause
		}
	}
	if chain == 0 {
		t.Fatalf("dump has no INPUT event for the keystroke: %+v", d.Events)
	}
	seqs := make(map[flight.Kind]map[uint32]bool)
	for _, ev := range d.Events {
		if ev.Cause != chain {
			continue
		}
		if seqs[ev.Kind] == nil {
			seqs[ev.Kind] = make(map[uint32]bool)
		}
		seqs[ev.Kind][ev.Seq] = true
	}
	var linked bool
	for seq := range seqs[flight.EvEncode] {
		if seqs[flight.EvTx][seq] && seqs[flight.EvRx][seq] && seqs[flight.EvPaint][seq] {
			linked = true
		}
	}
	if !linked {
		t.Errorf("no sequence number links ENCODE→TX→RX→PAINT in chain %d: %v", chain, seqs)
	}
	var breachMarked bool
	for _, ev := range d.Events {
		if ev.Kind == flight.EvBreach && ev.A >= ev.B {
			breachMarked = true
		}
	}
	if !breachMarked {
		t.Error("dump ring has no BREACH marker event")
	}

	// /debug/trace must serve the same session as valid Perfetto JSON.
	ts := httptest.NewServer(rec.TraceHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/trace?last=1m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pf struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  uint32  `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pf); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if pf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", pf.DisplayTimeUnit)
	}
	var slices, flows int
	for _, ev := range pf.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
		case "s", "f":
			flows++
		}
	}
	if slices < 5 || flows < 2 {
		t.Errorf("Perfetto export has %d slices and %d flow events, want >=5 and >=2", slices, flows)
	}
	if resp.Header.Get("Content-Type") != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", resp.Header.Get("Content-Type"))
	}

	// A bad query is rejected, not 500'd.
	bad, err := ts.Client().Get(ts.URL + "/debug/trace?session=zebra")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != 400 {
		t.Errorf("bad session query status = %d, want 400", bad.StatusCode)
	}
}

// TestFlightDisabledRecorderStaysCold: with the recorder disabled the
// whole pipeline must record nothing and dump nothing, whatever the
// latency.
func TestFlightDisabledRecorderStaysCold(t *testing.T) {
	kit := NewTelemetry()
	reg, rec := kit.Registry, kit.Flight
	rec.SetEnabled(false)
	rec.SetDumpDir(t.TempDir())
	kit.SLO.SetTarget(time.Nanosecond) // everything would breach if armed

	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp(), WithTelemetry(kit))
	srv.Auth.Register("card-bob", "bob")
	con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240, Obs: reg, Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-2", con, srv)
	if err := fabric.Boot("desk-2", "card-bob"); err != nil {
		t.Fatal(err)
	}
	if err := fabric.TypeString("desk-2", "quiet"); err != nil {
		t.Fatal(err)
	}

	sess := srv.SessionByUser("bob")
	if evs := rec.Events(sess.ID, 0); len(evs) != 0 {
		t.Errorf("disabled recorder captured %d events", len(evs))
	}
	if rec.BreachCount() != 0 {
		t.Errorf("disabled recorder counted %d breaches", rec.BreachCount())
	}
	files, _ := filepath.Glob(filepath.Join(rec.DumpDir(), "*"))
	if len(files) != 0 {
		t.Errorf("disabled recorder wrote dumps: %v", files)
	}
}
