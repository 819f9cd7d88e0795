package slo

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/flight"
)

// cfg is a fast test objective: 100ms at 10%, 1s/4s/16s windows, so a few
// dozen virtual events exercise every window without wall-clock sleeping.
func cfg() Config {
	return Config{
		Target: 100 * time.Millisecond,
		Budget: 0.10,
		Short:  time.Second,
		Mid:    4 * time.Second,
		Long:   16 * time.Second,
	}
}

// feed observes n events at t..t+n*step, breaching every kth.
func feed(s *SessionSLO, t, step time.Duration, n, everyK int) time.Duration {
	for i := 0; i < n; i++ {
		lat := 10 * time.Millisecond
		if everyK > 0 && i%everyK == 0 {
			lat = 500 * time.Millisecond
		}
		s.ObserveAt(t, lat)
		t += step
	}
	return t
}

// TestStateProgression drives one session OK → DEGRADED → BREACHING →
// recovery, checking the multi-window hysteresis: a short burst burns the
// short window only (DEGRADED); sustained breaching confirms across the
// mid window (BREACHING); after the storm the short window clears first.
func TestStateProgression(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainSim)
	tr := New(obs.NewClock(obs.DomainSim), cfg()).Instrument(reg)
	s := tr.Session(1, "alice")

	// Clean traffic: 40 events over 4s, no breaches.
	now := feed(s, 0, 100*time.Millisecond, 40, 0)
	if st := tr.State(); st != StateOK {
		t.Fatalf("clean traffic state = %v, want OK", st)
	}

	// One short burst: 3 breaches in the last second. Short window (10
	// events): 3/10 = 30% > 10% budget → burn 3. Mid window (40 events):
	// 3/40 = 7.5% < 10% → burn < 1. DEGRADED, not BREACHING.
	for i := 0; i < 3; i++ {
		s.ObserveAt(now, 500*time.Millisecond)
		now += 100 * time.Millisecond
	}
	now = feed(s, now, 100*time.Millisecond, 7, 0)
	if st := tr.State(); st != StateDegraded {
		t.Fatalf("after burst state = %v, want DEGRADED (windows %+v)", st, tr.FleetWindows())
	}

	// Sustained storm: 40% breaching for 4s confirms the mid window.
	now = feed(s, now, 100*time.Millisecond, 40, 2)
	if st := tr.State(); st != StateBreaching {
		t.Fatalf("storm state = %v, want BREACHING (windows %+v)", st, tr.FleetWindows())
	}
	if st := tr.Status().Sessions[0].State; st != "BREACHING" {
		t.Fatalf("session state = %v, want BREACHING", st)
	}

	// Recovery: clean traffic long enough to flush the short window but
	// not the mid → DEGRADED, then clean past the mid window → OK.
	now = feed(s, now, 100*time.Millisecond, 15, 0)
	if st := tr.State(); st != StateDegraded {
		t.Fatalf("early recovery state = %v, want DEGRADED (windows %+v)", st, tr.FleetWindows())
	}
	feed(s, now, 100*time.Millisecond, 170, 0)
	if st := tr.State(); st != StateOK {
		t.Fatalf("recovered state = %v, want OK (windows %+v)", st, tr.FleetWindows())
	}
}

// TestMetricsAndStatus checks the Prometheus series and the /debug/slo
// document against a known storm.
func TestMetricsAndStatus(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainSim)
	tr := New(obs.NewClock(obs.DomainSim), cfg()).Instrument(reg)
	s := tr.Session(7, "bob")
	feed(s, 0, 100*time.Millisecond, 40, 2) // 50% breaching
	s.RecordBlame(flight.StageWire)
	s.RecordBlame(flight.StageWire)
	s.RecordBlame(flight.StageEncode)

	snap := reg.Snapshot()
	if got := snap.Counters["slim_slo_events_total"]; got != 40 {
		t.Errorf("events counter = %d, want 40", got)
	}
	if got := snap.Counters["slim_slo_breaches_total"]; got != 20 {
		t.Errorf("breaches counter = %d, want 20", got)
	}
	if got := snap.Gauges["slim_slo_state"]; got != int64(StateBreaching) {
		t.Errorf("state gauge = %d, want %d", got, StateBreaching)
	}
	if got := snap.Gauges[`slim_slo_state{session="bob"}`]; got != int64(StateBreaching) {
		t.Errorf("session state gauge = %d", got)
	}
	// 50% breach rate at 10% budget = burn 5.0 → 5000 milli.
	if got := snap.Gauges[`slim_slo_burn_milli{window="short"}`]; got < 4000 || got > 6000 {
		t.Errorf("short burn gauge = %d, want ~5000", got)
	}
	if got := snap.Counters[`slim_slo_blame_total{stage="wire"}`]; got != 2 {
		t.Errorf("wire blame counter = %d, want 2", got)
	}

	srv := httptest.NewServer(obs.JSONHandler(func(*http.Request) (any, error) { return tr.Status(), nil }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State != "BREACHING" || !st.Enabled {
		t.Errorf("status = %s enabled=%v", st.State, st.Enabled)
	}
	if st.TargetNs != int64(100*time.Millisecond) || st.BudgetPct != 10 {
		t.Errorf("objective = %dns %.1f%%", st.TargetNs, st.BudgetPct)
	}
	if len(st.Sessions) != 1 || st.Sessions[0].User != "bob" {
		t.Fatalf("sessions = %+v", st.Sessions)
	}
	if st.Sessions[0].Blame["wire"] != 2 || st.Sessions[0].Blame["encode"] != 1 {
		t.Errorf("session blame = %+v", st.Sessions[0].Blame)
	}
	if st.Blame["wire"] != 2 {
		t.Errorf("fleet blame = %+v", st.Blame)
	}
	if len(st.Windows) != 3 || st.Windows[0].Role != "short" {
		t.Errorf("windows = %+v", st.Windows)
	}
}

// TestEviction: Remove drops the session and its labeled gauge.
func TestEviction(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainSim)
	tr := New(obs.NewClock(obs.DomainSim), cfg()).Instrument(reg)
	s := tr.Session(3, "carol")
	s.ObserveAt(0, time.Millisecond)
	name := `slim_slo_state{session="carol"}`
	if _, ok := reg.Snapshot().Gauges[name]; !ok {
		t.Fatalf("gauge %q not registered", name)
	}
	tr.Remove(3)
	if _, ok := reg.Snapshot().Gauges[name]; ok {
		t.Errorf("gauge %q survived Remove", name)
	}
	if ids := tr.SessionIDs(); len(ids) != 0 {
		t.Errorf("sessions after Remove: %v", ids)
	}
}

// TestDisabledAndNil: a disabled tracker and a nil session are inert.
func TestDisabledAndNil(t *testing.T) {
	tr := New(obs.Wall, cfg())
	s := tr.Session(1, "x")
	tr.SetEnabled(false)
	s.Observe(obs.Wall.Now(), 10*time.Second) // would breach if armed
	s.RecordBlame(flight.StageWire)
	tr.SetEnabled(true)
	if st := tr.FleetWindows(); st[WinShort].Events != 0 {
		t.Errorf("disabled tracker counted events: %+v", st)
	}
	var nilS *SessionSLO
	if nilS.Armed() {
		t.Error("nil session armed")
	}
	nilS.Observe(obs.Wall.Now(), time.Second)
	nilS.RecordBlame(flight.StageWire)
}

// TestDomainEnforcement: a wall tracker refuses virtual timestamps, and a
// self-stamped observe on a sim tracker lands at the virtual clock its
// harness set — never at wall time.
func TestDomainEnforcement(t *testing.T) {
	wall := New(obs.Wall, cfg()).Session(1, "w")
	mustPanic(t, func() { wall.ObserveAt(time.Second, time.Millisecond) })

	clk := obs.NewClock(obs.DomainSim)
	tr := New(clk, cfg())
	clk.Set(time.Hour)
	tr.Session(1, "s").Observe(obs.Wall.Now(), time.Millisecond)
	if st := tr.Status(); st.NowNs != int64(time.Hour) || st.Windows[WinShort].Events != 1 {
		t.Errorf("self-stamped sim observe not at the virtual clock: now=%d windows=%+v", st.NowNs, st.Windows)
	}
	clk.Set(2 * time.Hour)
	if ev := tr.FleetWindows()[WinLong].Events; ev != 0 {
		t.Errorf("window did not decay on the virtual clock: %d events", ev)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

// TestSubscribe drives a storm and recovery and checks that every fleet
// state transition is delivered exactly once, in order, and that cancel
// stops delivery.
func TestSubscribe(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainSim)
	tr := New(obs.NewClock(obs.DomainSim), cfg()).Instrument(reg)
	s := tr.Session(1, "alice")

	type tr2 struct{ from, to State }
	var got []tr2
	cancel := tr.Subscribe(func(from, to State) {
		got = append(got, tr2{from, to})
	})

	// Clean baseline, then a sustained storm, then recovery — the same
	// shape as TestStateProgression.
	now := feed(s, 0, 100*time.Millisecond, 40, 0)
	if len(got) != 0 {
		t.Fatalf("transitions on clean traffic: %+v", got)
	}
	now = feed(s, now, 100*time.Millisecond, 43, 2)
	now = feed(s, now, 100*time.Millisecond, 185, 0)

	want := []tr2{
		{StateOK, StateDegraded},
		{StateDegraded, StateBreaching},
		{StateBreaching, StateDegraded},
		{StateDegraded, StateOK},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Cancel, storm again: no further deliveries. Cancel twice: harmless.
	cancel()
	cancel()
	before := len(got)
	feed(s, now, 100*time.Millisecond, 43, 2)
	if len(got) != before {
		t.Errorf("cancelled subscriber still delivered: %+v", got[before:])
	}
}

// TestSubscribeUninstrumented: transitions fire even on trackers with no
// registry (the observe path evaluates burns only when someone listens).
func TestSubscribeUninstrumented(t *testing.T) {
	tr := New(obs.NewClock(obs.DomainSim), cfg())
	s := tr.Session(1, "alice")
	var n int
	defer tr.Subscribe(func(from, to State) { n++ })()
	now := feed(s, 0, 100*time.Millisecond, 40, 0)
	feed(s, now, 100*time.Millisecond, 43, 2)
	if n == 0 {
		t.Error("no transitions delivered on uninstrumented tracker")
	}
}

// TestZeroAllocDisabled pins the disabled-path allocation budget: with the
// tracker off, Observe must not allocate — servers leave the call sites
// unconditional.
func TestZeroAllocDisabled(t *testing.T) {
	tr := New(obs.Wall, cfg())
	s := tr.Session(1, "alice")
	tr.SetEnabled(false)
	if n := testing.AllocsPerRun(1000, func() {
		s.Observe(obs.Wall.Now(), 200*time.Millisecond)
	}); n != 0 {
		t.Errorf("disabled Observe allocates %.1f/op, want 0", n)
	}
	var nilS *SessionSLO
	if n := testing.AllocsPerRun(1000, func() {
		nilS.Observe(obs.Wall.Now(), 200*time.Millisecond)
	}); n != 0 {
		t.Errorf("nil Observe allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocEnabled pins the hot observe path itself: even armed, an
// instrumented Observe allocates nothing.
func TestZeroAllocEnabled(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	tr := New(obs.Wall, cfg()).Instrument(reg)
	s := tr.Session(1, "alice")
	if n := testing.AllocsPerRun(1000, func() {
		s.Observe(obs.Wall.Now(), 10*time.Millisecond)
	}); n != 0 {
		t.Errorf("enabled Observe allocates %.1f/op, want 0", n)
	}
	// A live subscription must not change the steady-state (no-transition)
	// budget: noteState's no-change path is one atomic load.
	defer tr.Subscribe(func(from, to State) {})()
	if n := testing.AllocsPerRun(1000, func() {
		s.Observe(obs.Wall.Now(), 10*time.Millisecond)
	}); n != 0 {
		t.Errorf("subscribed Observe allocates %.1f/op, want 0", n)
	}
}
