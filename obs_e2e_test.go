package slim

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
)

// TestInputToPaintEndToEnd drives a real session over the in-process
// fabric against a fresh registry and checks the paper's headline quantity
// — input-to-paint latency — comes out live and nonzero. On the fabric
// transport delivery is synchronous, so the span covers the full path:
// input dispatch, app update, encode, wire, console decode, damage flush.
func TestInputToPaintEndToEnd(t *testing.T) {
	kit := NewTelemetry()
	reg := kit.Registry
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp(), WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")

	con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	const typed = "interactive"
	if err := fabric.TypeString("desk-1", typed); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()

	// Every keystroke is press + release, and every input is counted; only
	// the press draws (its echo glyph), so only the press is timed.
	if got, want := snap.Counters["slim_input_events_total"], int64(2*len(typed)); got != want {
		t.Errorf("input events = %d, want %d", got, want)
	}
	wantEvents := int64(len(typed))
	itp := snap.Histograms["slim_input_to_paint_seconds"]
	if itp.Count != wantEvents {
		t.Fatalf("input-to-paint count = %d, want %d (one per keystroke that drew)", itp.Count, wantEvents)
	}
	if itp.P50 <= 0 || itp.P95 <= 0 || itp.P99 <= 0 {
		t.Errorf("input-to-paint percentiles not populated: p50=%g p95=%g p99=%g",
			itp.P50, itp.P95, itp.P99)
	}
	// In-process delivery must land far under the paper's 20 ms
	// instantaneous-perception threshold.
	if itp.P99 > 0.020 {
		t.Errorf("in-process input-to-paint p99 = %gs, want <20ms", itp.P99)
	}

	// The per-session histogram mirrors the global one.
	perSession := snap.Histograms[`slim_input_to_paint_seconds{session="alice"}`]
	if perSession.Count != wantEvents {
		t.Errorf("per-session count = %d, want %d", perSession.Count, wantEvents)
	}
	sess := srv.SessionByUser("alice")
	if itp := sess.Telemetry().InputToPaint; itp == nil || itp.Count() != wantEvents {
		t.Errorf("session input-to-paint histogram not wired")
	}

	// The surrounding pipeline published too: encoder commands and bytes,
	// console applies, decode timings, session gauge.
	if snap.CounterSum("slim_encoder_commands_total") == 0 {
		t.Error("encoder command counters empty")
	}
	if snap.CounterSum("slim_encoder_wire_bytes_total") == 0 {
		t.Error("encoder wire byte counters empty")
	}
	if snap.Counters["slim_console_applied_total"] == 0 {
		t.Error("console applied counter empty")
	}
	if snap.Histograms["slim_console_decode_seconds"].Count == 0 {
		t.Error("console decode histogram empty")
	}
	if snap.Histograms["slim_encode_seconds"].Count == 0 {
		t.Error("encode histogram empty")
	}
	if got := snap.Gauges["slim_sessions"]; got != 1 {
		t.Errorf("sessions gauge = %d, want 1", got)
	}
	if got := snap.Counters["slim_session_attaches_total"]; got != 1 {
		t.Errorf("attaches = %d, want 1", got)
	}
}

// releasePainter is a test Application that draws on key release and on
// nothing else.
type releasePainter struct{}

func (releasePainter) HandleKey(ev protocol.KeyEvent) []Op {
	if ev.Down {
		return nil
	}
	return []Op{FillOp{Rect: Rect{W: 8, H: 16}, Color: Pixel(ev.Code)}}
}

func (releasePainter) HandlePointer(protocol.PointerEvent) []Op { return nil }

// TestOnlyInputsThatDrawAreTimed: an input is watched — both
// input-to-paint histograms, an SLO observation, an INPUT opening a chain
// in the flight ring — only if its application returned ops. A key
// release, a motion with no button held and a click the terminal answers
// with no op are counted in slim_input_events_total and watched nowhere
// else; an application that paints on release has its release timed,
// under the release's key code.
func TestOnlyInputsThatDrawAreTimed(t *testing.T) {
	const what = "global histogram, session histogram, SLO events, ring INPUTs"
	rig := func(t *testing.T, app AppFactory) (*TelemetryKit, Desk, uint32) {
		kit := NewTelemetry()
		fabric := NewFabric()
		srv := NewServer(fabric, app, WithTelemetry(kit))
		srv.Auth.Register("card-alice", "alice")
		con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240, Obs: kit.Registry, Flight: kit.Flight})
		if err != nil {
			t.Fatal(err)
		}
		fabric.Attach("desk", con, srv)
		if err := fabric.Boot("desk", "card-alice"); err != nil {
			t.Fatal(err)
		}
		return kit, fabric.Desk("desk"), srv.SessionByUser("alice").ID
	}
	// watched reads what timing an input feeds, in the order of what.
	watched := func(kit *TelemetryKit, id uint32) [4]int64 {
		snap := kit.Registry.Snapshot()
		var inputs int64
		for _, ev := range kit.Flight.Events(id, 0) {
			if ev.Kind == flight.EvInput {
				inputs++
			}
		}
		return [4]int64{
			snap.Histograms["slim_input_to_paint_seconds"].Count,
			snap.Histograms[`slim_input_to_paint_seconds{session="alice"}`].Count,
			kit.SLO.Status().Windows[0].Events,
			inputs,
		}
	}
	counted := func(kit *TelemetryKit) int64 { return kit.Registry.Counter("slim_input_events_total").Value() }

	t.Run("terminal", func(t *testing.T) {
		kit, desk, id := rig(t, WithTerminalApp())
		if err := desk.SendKey('x', true); err != nil {
			t.Fatal(err)
		}
		before := watched(kit, id)
		if before != [4]int64{1, 1, 1, 1} {
			t.Fatalf("a key press that echoed is watched %v (%s), want once by each", before, what)
		}
		if err := desk.SendKey('x', false); err != nil {
			t.Fatal(err)
		}
		if err := desk.SendPointer(40, 40, 0); err != nil {
			t.Fatal(err)
		}
		if err := desk.SendPointer(40, 40, 1); err != nil {
			t.Fatal(err)
		}
		if after := watched(kit, id); after != before {
			t.Errorf("a release, a motion and a click that drew nothing moved %s from %v to %v", what, before, after)
		}
		if got := counted(kit); got != 4 {
			t.Errorf("slim_input_events_total = %d, want 4: the press and the three that drew nothing", got)
		}
	})

	t.Run("paints on release", func(t *testing.T) {
		kit, desk, id := rig(t, func(string, int, int) Application { return releasePainter{} })
		if err := desk.SendKey('q', true); err != nil {
			t.Fatal(err)
		}
		if got := watched(kit, id); got != [4]int64{} {
			t.Fatalf("a press that drew nothing is watched %v (%s)", got, what)
		}
		if err := desk.SendKey('q', false); err != nil {
			t.Fatal(err)
		}
		if got := watched(kit, id); got != [4]int64{1, 1, 1, 1} {
			t.Errorf("a release that drew is watched %v (%s), want once by each", got, what)
		}
		if got := counted(kit); got != 2 {
			t.Errorf("slim_input_events_total = %d, want 2", got)
		}
		for _, ev := range kit.Flight.Events(id, 0) {
			if ev.Kind == flight.EvInput && (ev.Cmd != protocol.TypeKey || ev.A != 'q') {
				t.Errorf("the release's INPUT is %v %d, want KEY %d", ev.Cmd, ev.A, 'q')
			}
		}
	})
}

// TestDebugHandlerExposesLiveTraffic drives the default-registry path (as
// slimd does) and scrapes the facade's debug handler.
func TestDebugHandlerExposesLiveTraffic(t *testing.T) {
	fabric, srv := newFabricSystem(t)
	attachConsole(t, fabric, srv, "desk-1", "card-alice")
	if err := fabric.TypeString("desk-1", "x"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(DebugHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	for _, want := range []string{
		"slim_input_to_paint_seconds_bucket",
		"slim_input_to_paint_seconds_count",
		"slim_sessions",
		"slim_encoder_commands_total",
		"slim_fabric_delivered_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if Metrics().Domain() != obs.DomainWall || SimMetrics().Domain() != obs.DomainSim {
		t.Error("facade registries report wrong domains")
	}
}

// TestUDPServerCloseJoinsServeGoroutine is the regression test for the
// serve-goroutine leak: Close must not return before the background reader
// has exited, and a second Close must be a clean no-op. The wait is what
// failed before — Close used to orphan the goroutine blocked in
// ReadFromUDP.
func TestUDPServerCloseJoinsServeGoroutine(t *testing.T) {
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	// The serve goroutine is parked in ReadFromUDP with no traffic — the
	// exact state that leaked.
	closeDone := make(chan error, 1)
	go func() { closeDone <- srv.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not join the serve goroutine")
	}
	// Idempotent: a second Close also waits (instantly) and succeeds.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestUDPConsoleCloseJoinsServeGoroutine: same contract on the client side.
func TestUDPConsoleCloseJoinsServeGoroutine(t *testing.T) {
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-u", "udpuser")
	con, err := DialConsoleContext(testContext(t), srv.Addr().String(), ConsoleConfig{Width: 320, Height: 240}, TokenOf("card-u"))
	if err != nil {
		t.Fatal(err)
	}
	closeDone := make(chan error, 1)
	go func() { closeDone <- con.Close() }()
	select {
	case err := <-closeDone:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("console Close did not join the serve goroutine")
	}
	if err := con.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
