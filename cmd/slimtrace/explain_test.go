package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slim"
	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/incident"
	"slim/internal/obs/telemetry"
)

// evidence is what one driven session leaves behind.
type evidence struct {
	capture string // .slimcap spool
	dumps   string // flight dump directory
	bundle  string // one incident bundle
}

// driveSession runs two users through a short typing session on a fabric
// with the capture ring on and the SLO target at a nanosecond, so
// every keystroke's paint dumps, then writes an incident bundle. Flight
// events, capture records and the fabric share one virtual clock, as a
// live slimd's share obs.Wall.
func driveSession(t testing.TB, dir string) evidence {
	t.Helper()
	ev := evidence{capture: filepath.Join(dir, "run.slimcap"), dumps: filepath.Join(dir, "dumps")}
	if err := os.MkdirAll(ev.dumps, 0o755); err != nil {
		t.Fatal(err)
	}
	kit := telemetry.New(obs.DomainSim)
	kit.NetQual.SetEnabled(true)
	kit.SLO.SetTarget(time.Nanosecond)
	kit.Flight.SetDumpDir(ev.dumps)
	ring := capture.NewRing(1 << 12)
	ring.SetEnabled(true)

	fabric := slim.NewFabric()
	fabric.SetCapture(ring)
	srv := slim.NewServer(fabric, slim.WithTerminalApp(), slim.WithTelemetry(kit))
	now := time.Duration(0)
	tick := func(d time.Duration) {
		now += d
		kit.Clock.Set(now)
		fabric.SetClock(now)
		if err := fabric.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	for _, user := range []string{"alice", "bob"} {
		srv.Auth.Register("card-"+user, user)
		con, err := slim.NewConsole(slim.ConsoleConfig{Width: 160, Height: 96, Obs: kit.Registry, Flight: kit.Flight})
		if err != nil {
			t.Fatal(err)
		}
		fabric.Attach("desk-"+user, con, srv)
		if err := fabric.Boot("desk-"+user, "card-"+user); err != nil {
			t.Fatal(err)
		}
	}
	// Let the attach repaints age out of the dump window, then type.
	tick(10 * time.Second)
	for _, user := range []string{"alice", "bob"} {
		for _, ch := range "hi" {
			if err := fabric.Desk("desk-"+user).SendKey(uint16(ch), true); err != nil {
				t.Fatal(err)
			}
			tick(30 * time.Millisecond)
			if err := fabric.Desk("desk-"+user).SendKey(uint16(ch), false); err != nil {
				t.Fatal(err)
			}
			tick(30 * time.Millisecond)
		}
	}
	tick(time.Second)
	if kit.Flight.BreachCount() == 0 {
		t.Fatal("no breach was forced")
	}

	f, err := os.Create(ev.capture)
	if err != nil {
		t.Fatal(err)
	}
	if err := capture.WriteHeader(f, obs.DomainSim, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ring.SpoolTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	eng := incident.New(incident.Config{Dir: filepath.Join(dir, "incidents"), CPUProfile: 20 * time.Millisecond},
		incident.Sources{
			SLO:         kit.SLO,
			Monitor:     hostmon.New(obs.Wall, hostmon.Config{}),
			Registry:    kit.Registry,
			FlightDir:   ev.dumps,
			CaptureFile: ev.capture,
		})
	m, err := eng.Trigger("explain-test", "manual")
	if err != nil {
		t.Fatal(err)
	}
	ev.bundle = filepath.Join(eng.Dir(), m.Name)
	return ev
}

// explained runs `slimtrace explain args...` and returns what it printed.
func explained(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := explain(&out, args); err != nil {
		t.Fatalf("explain %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

func wantSections(t *testing.T, what, out string, names ...string) {
	t.Helper()
	for _, name := range names {
		for _, want := range sections[name] {
			if !strings.Contains(out, want) {
				t.Errorf("explain %s: %s section lacks %q:\n%s", what, name, want, out)
			}
		}
	}
}

// sections maps what each old subcommand printed to strings that only it
// prints.
var sections = map[string][]string{
	"wire":     {"server → console", "console → server", "command", "bits/s", "BITMAP", "STATUS"},
	"path":     {"path replay:", "srtt", "loss5s", "goodbits/s"},
	"census":   {"input-to-paint", "breached threshold", "event census", "INPUT", "PAINT", "last causal chain"},
	"blame":    {"dumps from", "breaches (", "STAGE", "AVG-LATENCY"},
	"manifest": {"bundle incident-", "trigger: explain-test (manual)", "files (", "hostmon.json", "host at capture: heap"},
}

// TestExplainEvidence drives a session and explains everything it left:
// the capture, one dump, the dump directory and the bundle each print
// what the subcommands explain replaced printed for that input.
func TestExplainEvidence(t *testing.T) {
	dir := t.TempDir()
	ev := driveSession(t, dir)
	dumps, err := flight.ListDumps(ev.dumps)
	if err != nil || len(dumps) < 2 {
		t.Fatalf("dumps = %v, %v; want one per session", dumps, err)
	}

	out := explained(t, ev.capture)
	wantSections(t, "capture", out, "wire", "path")
	for _, desk := range []string{"desk-alice", "desk-bob"} {
		if !strings.Contains(out, desk) {
			t.Errorf("path table has no row for %s:\n%s", desk, out)
		}
	}

	out = explained(t, dumps[0])
	wantSections(t, "dump", out, "census", "blame")
	if !strings.Contains(out, "1 dumps from 1 sessions") {
		t.Errorf("one dump did not yield a one-dump blame table:\n%s", out)
	}
	if re := explained(t, "-reattribute", dumps[0]); !strings.Contains(re, "1 breaches") {
		t.Errorf("-reattribute lost the breach:\n%s", re)
	}

	out = explained(t, ev.dumps)
	wantSections(t, "dump directory", out, "census", "blame")
	for _, want := range []string{"from 2 sessions", "\nsession 1:\n", "\nsession 2:\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump directory: no per-session split (%q):\n%s", want, out)
		}
	}

	out = explained(t, ev.bundle)
	wantSections(t, "bundle", out, "manifest", "census", "blame", "wire", "path")
	if out := explained(t, filepath.Dir(ev.bundle)); !strings.Contains(out, "BUNDLE") || !strings.Contains(out, filepath.Base(ev.bundle)) {
		t.Errorf("bundle directory is not listed:\n%s", out)
	}

	// -o converts exactly one dump or capture into a trace stat can load.
	// (Desk input reaches the server without crossing the fabric's tap, so
	// only the dump's trace has the keystroke.)
	tracePath := filepath.Join(dir, "run.trace")
	explained(t, "-o", tracePath, ev.capture)
	if tr := load(tracePath); len(tr.Records) < 6 || tr.AvgBandwidthBps() <= 0 {
		t.Errorf("-o from the capture: %d records at %.0f b/s, want the repaints and echoes", len(tr.Records), tr.AvgBandwidthBps())
	}
	explained(t, "-o", tracePath, dumps[0])
	if tr := load(tracePath); tr.InputCount() != 1 || len(tr.Records) != 2 {
		t.Errorf("-o from a dump: %d inputs in %d records, want the keystroke and its echo", tr.InputCount(), len(tr.Records))
	}
	if err := explain(io.Discard, []string{"-o", tracePath, ev.bundle}); err == nil {
		t.Error("-o over a bundle's several members did not refuse")
	}

	// -perfetto over a dump and the capture is one loadable document with
	// the session lanes and the wire tracks on one timebase.
	perfettoPath := filepath.Join(dir, "run.json")
	explained(t, "-perfetto", perfettoPath, dumps[0], ev.capture)
	raw, err := os.ReadFile(perfettoPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-perfetto wrote unloadable JSON: %v", err)
	}
	span := map[string][2]float64{} // category → [first, last] timestamp
	for _, te := range doc.TraceEvents {
		if te.Ph == "M" {
			continue
		}
		cat := te.Cat
		if cat != "wire" {
			cat = "session"
		}
		s, seen := span[cat]
		if !seen || te.TS < s[0] {
			s[0] = te.TS
		}
		s[1] = max(s[1], te.TS)
		span[cat] = s
	}
	sess, wire := span["session"], span["wire"]
	if len(span) != 2 || sess[0] < wire[0] || sess[1] > wire[1] {
		t.Errorf("session lanes span %v µs, wire tracks %v µs: want both, the dump inside the capture", sess, wire)
	}
}

// TestExplainParentFixtures: a capture, a dump and a bundle written by the
// parent commit's code (testdata/, generated by the same drive) are still
// read, and explained to the numbers the parent's subcommands printed.
func TestExplainParentFixtures(t *testing.T) {
	out := explained(t, "testdata/parent.slimcap")
	wantSections(t, "parent capture", out, "wire", "path")
	want, err := os.ReadFile("testdata/parent.slimcap.capture.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, string(want)) {
		t.Errorf("wire tables differ from the parent's `slimtrace capture`:\n%s\nwant:\n%s", out, want)
	}
	out = explained(t, "testdata/parent-dumps")
	wantSections(t, "parent dumps", out, "census", "blame")
	want, err = os.ReadFile("testdata/parent-dumps.blame.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, string(want)) {
		t.Errorf("blame table differs from the parent's `slimtrace blame -dir -sessions`:\n%s\nwant:\n%s", out, want)
	}
	out = explained(t, "testdata/parent-bundle")
	wantSections(t, "parent bundle", out, "manifest", "census", "blame", "wire", "path")
}

// FuzzExplainInput: whatever bytes an evidence file holds, sniffing and
// explaining it — ReadCapture or ReadDump, the record walker under the
// wire tables, the path replay, both exports — neither panics nor reads
// a record past the reader's wire-length bound.
func FuzzExplainInput(f *testing.F) {
	seed, err := os.ReadFile("../../internal/protocol/testdata/seed.slimcap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte(`{"session":1,"domain":"wall","events":[{"t":1,"kind":1,"cause":7},{"t":2,"kind":3,"seq":1,"cause":7}]}`))
	f.Add([]byte("SLCP"))
	f.Add(capture.AppendRecord(seed[:16:16], capture.Record{T: -1, Dir: capture.DirUp, Size: 1, Wire: []byte{0}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := &explainer{w: io.Discard, wantEvents: true, wantTraces: true}
		var blame flight.Blame
		if e.stream(bytes.NewReader(data), &blame) == nil && blame.Total.Total > 0 {
			blame.Format(io.Discard)
		}
		if _, recs, _ := capture.ReadCapture(bytes.NewReader(data)); len(recs) > 0 {
			for _, rec := range recs {
				if len(rec.Wire) > 1<<20 {
					t.Fatalf("record holds %d wire bytes, past the reader's bound", len(rec.Wire))
				}
			}
		}
	})
}
