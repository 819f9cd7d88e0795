package slim

import (
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/telemetry"
)

// TestDebugEndpointTable walks the one debug-endpoint table: every row must
// be served by DebugHandler (a row that only the index knows about is a
// 404), every JSON document must carry the shared Content-Type, and every
// row must appear in the README's table with its description verbatim, and
// every README row must be a row of the table. An endpoint added to,
// redescribed in or deleted from the mux, the index or the README alone
// fails here.
func TestDebugEndpointTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, ep := range DebugEndpoints() {
		listed[ep.Path] = true
	}
	for _, line := range strings.Split(string(readme), "\n") {
		if rest, ok := strings.CutPrefix(line, "| `/"); ok {
			if path, _, _ := strings.Cut(rest, "`"); !listed["/"+path] {
				t.Errorf("README lists /%s, which DebugEndpoints does not", path)
			}
		}
	}
	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()
	for _, ep := range DebugEndpoints() {
		resp, err := ts.Client().Get(ts.URL + ep.Path)
		if err != nil {
			t.Fatalf("GET %s: %v", ep.Path, err)
		}
		resp.Body.Close()
		// /debug/incident answers 503 until an engine is started; only
		// "nothing is mounted here" is a failure.
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("%s is listed but not served", ep.Path)
		}
		ct := resp.Header.Get("Content-Type")
		if strings.Contains(ct, "json") && ct != "application/json; charset=utf-8" {
			t.Errorf("%s: Content-Type %q, want the shared JSON header", ep.Path, ct)
		}
		row := readmeRow(string(readme), "| `"+ep.Path+"`")
		if row == "" {
			t.Errorf("%s has no row in the README's debug-endpoint table", ep.Path)
		} else if !strings.Contains(row, "| "+ep.Description) {
			t.Errorf("README row %q does not describe %s as DebugEndpoints does: %q", row, ep.Path, ep.Description)
		}
	}
	// The index serves the same table, and nothing else hides under /debug/.
	resp, err := ts.Client().Get(ts.URL + "/debug/no-such-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unlisted /debug/ path answered %d, want 404", resp.StatusCode)
	}
}

// readmeRow returns the README line starting with prefix, or "".
func readmeRow(readme, prefix string) string {
	for _, line := range strings.Split(readme, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// oneTimelineRig is a server, console and host monitor all observing
// through one telemetry kit.
type oneTimelineRig struct {
	kit    *telemetry.Kit
	mon    *hostmon.Monitor
	fabric *Fabric
	srv    *Server
	con    *Console
	sess   *Session
}

func newOneTimelineRig(t *testing.T, kit *telemetry.Kit) *oneTimelineRig {
	t.Helper()
	kit.NetQual.SetEnabled(true)
	// Any GC pause is a stall window; CPU-stall detection is parked so the
	// window kind is deterministic.
	mon := hostmon.New(kit.Clock, hostmon.Config{
		GCPauseThreshold:  time.Nanosecond,
		CPUStallThreshold: time.Hour,
	})
	mon.SampleNow() // warm-up: the first tick's histogram delta is skipped
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp(), WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")
	con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240, Obs: kit.Registry, Flight: kit.Flight})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	return &oneTimelineRig{kit, mon, fabric, srv, con, srv.SessionByUser("alice")}
}

// input types one key and lets the console acknowledge it on its own
// cadence, StatusAckDelay of transport time later; between the two,
// advance (if any) moves the observers' time. It returns the INPUT event
// the keystroke left in the flight ring.
func (r *oneTimelineRig) input(t *testing.T, advance func()) flight.Event {
	t.Helper()
	if err := r.fabric.SendKey("desk-1", 'a', true); err != nil {
		t.Fatal(err)
	}
	if advance != nil {
		advance()
	}
	r.fabric.SetClock(r.fabric.Now() + StatusAckDelay)
	if err := r.fabric.Pump(); err != nil {
		t.Fatal(err)
	}
	var input flight.Event
	for _, ev := range r.kit.Flight.Events(r.sess.ID, 0) {
		if ev.Kind == flight.EvInput {
			input = ev
		}
	}
	if input.Kind != flight.EvInput {
		t.Fatal("no INPUT event in the session's flight ring")
	}
	return input
}

// stall forces a GC pause and samples it, returning the stall window.
func (r *oneTimelineRig) stall(t *testing.T) flight.HostWindow {
	t.Helper()
	for i := 0; i < 20; i++ {
		runtime.GC()
		r.mon.SampleNow()
		if wins := r.mon.Windows(r.kit.Clock.Now()); len(wins) > 0 {
			return wins[len(wins)-1]
		}
	}
	t.Fatal("no GC stall window after 20 forced collections")
	return flight.HostWindow{}
}

// TestOneTimeline arms the flight recorder, SLO tracker, path estimator and
// host monitor on one kit and checks that what they record about one input
// lands on one timeline. Before the kit, each observer counted time from
// its own construction, so the four stamps differed by however far apart
// the observers were built and the server had to translate between them.
func TestOneTimeline(t *testing.T) {
	// Wall domain: every stamp falls inside the bracket the test puts
	// around the input on the kit's clock — the observers were built well
	// before it, at different times, which used to be their epochs.
	t.Run("wall", func(t *testing.T) {
		kit := NewTelemetry()
		time.Sleep(40 * time.Millisecond)
		r := newOneTimelineRig(t, kit)
		time.Sleep(40 * time.Millisecond)

		t0 := kit.Clock.Now()
		input := r.input(t, func() { time.Sleep(2 * time.Millisecond) })
		win := r.stall(t)
		slo := kit.SLO.Status()
		t1 := kit.Clock.Now()

		within := func(what string, at time.Duration) {
			t.Helper()
			if at < t0 || at > t1 {
				t.Errorf("%s stamped %v, outside the input's span [%v, %v]", what, at, t0, t1)
			}
		}
		within("flight INPUT event", input.T)
		within("SLO evaluation", time.Duration(slo.NowNs))
		within("hostmon stall window end", win.End)
		if slo.Windows[0].Events == 0 {
			t.Errorf("SLO short window read at the kit's clock holds no observation: %+v", slo.Windows[0])
		}
		// The ack sample is read back at the flight event's own timestamp:
		// visible there, decayed a long window later.
		if ev := kit.NetQual.PathEvidence(r.sess.ID, input.T+(t1-t0)); ev == nil || ev.Samples == 0 || ev.GoodputBps <= 0 {
			t.Errorf("no path evidence on the flight timeline near the input: %+v", ev)
		}
		if ev := kit.NetQual.PathEvidence(r.sess.ID, input.T+10*time.Minute); ev == nil || ev.GoodputBps != 0 {
			t.Errorf("path windows did not decay on the flight timeline: %+v", ev)
		}
	})

	// Wall domain over UDP: the wire tap is on the same timeline. The
	// transport used to stamp capture records from the listener's own
	// epoch, so a record and the flight events of the datagram it captured
	// disagreed by however long the process had run before listening.
	t.Run("udp", func(t *testing.T) {
		kit := NewTelemetry()
		time.Sleep(40 * time.Millisecond)
		srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp(), WithTelemetry(kit))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		srv.Server.Auth.Register("card-alice", "alice")
		con, err := DialConsoleContext(testContext(t), srv.Addr().String(),
			ConsoleConfig{Width: 320, Height: 240, Obs: kit.Registry, Flight: kit.Flight}, TokenOf("card-alice"))
		if err != nil {
			t.Fatal(err)
		}
		defer con.Close()
		waitAttached(t, con)
		sess := srv.Server.SessionByUser("alice")
		attached := settledSeq(t, con, 0)

		ring := telemetry.Default.Capture // the UDP transport's tap
		t0 := kit.Clock.Now()
		ring.SetEnabled(true)
		if err := con.SendKey('a', true); err != nil {
			t.Fatal(err)
		}
		echo := settledSeq(t, con, attached)
		ring.SetEnabled(false)
		t1 := kit.Clock.Now()

		within := func(what string, at time.Duration) {
			t.Helper()
			if at < t0 || at > t1 {
				t.Errorf("%s stamped %v, outside the keystroke's span [%v, %v]", what, at, t0, t1)
			}
		}
		var up, down int
		for _, rec := range ring.Drain() {
			within("capture record ("+rec.Dir.String()+")", rec.T)
			if rec.Dir == capture.DirUp {
				up++
			} else {
				down++
			}
		}
		if up == 0 || down == 0 {
			t.Errorf("captured %d up and %d down datagrams, want the key and its echo", up, down)
		}
		var tx, rx int
		for _, ev := range kit.Flight.Events(sess.ID, 0) {
			if ev.Seq != echo {
				continue
			}
			switch ev.Kind {
			case flight.EvTx:
				tx++
				within("flight TX event", ev.T)
			case flight.EvRx:
				rx++
				within("flight RX event", ev.T)
			}
		}
		if tx == 0 || rx == 0 {
			t.Errorf("flight ring holds %d TX and %d RX events for the echo (seq %d)", tx, rx, echo)
		}
	})

	// Sim domain: the harness owns the one clock, so the stamps are exact.
	t.Run("sim", func(t *testing.T) {
		kit := telemetry.New(obs.DomainSim)
		kit.Clock.Set(time.Hour)
		r := newOneTimelineRig(t, kit)

		at := time.Hour + time.Second
		kit.Clock.Set(at)
		input := r.input(t, func() { kit.Clock.Set(at + 5*time.Millisecond) })
		win := r.stall(t)

		if input.T != at {
			t.Errorf("flight INPUT stamped %v, want the virtual instant %v", input.T, at)
		}
		if ev := kit.NetQual.PathEvidence(r.sess.ID, kit.Clock.Now()); ev == nil || ev.SRTTNs != int64(5*time.Millisecond) {
			t.Errorf("ack sample not measured on the virtual timeline (want SRTT 5ms): %+v", ev)
		}
		if win.End != at+5*time.Millisecond {
			t.Errorf("stall window ends %v, want the virtual instant %v", win.End, at+5*time.Millisecond)
		}
		slo := kit.SLO.Status()
		if slo.NowNs != int64(at+5*time.Millisecond) || slo.Windows[0].Events != 1 {
			t.Errorf("SLO observation not at the virtual instant: now=%d short=%+v", slo.NowNs, slo.Windows[0])
		}
		kit.Clock.Set(at + 10*time.Minute)
		if ev := kit.SLO.Status().Windows[0].Events; ev != 0 {
			t.Errorf("SLO short window still holds %d events ten virtual minutes on", ev)
		}
	})
}
