package flight

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

func TestRingRecordsAndOrders(t *testing.T) {
	rec := New(obs.DomainWall)
	l := rec.Session(7)
	id := l.Input(protocol.TypeKey, 'x')
	if id == 0 {
		t.Fatal("Input returned zero chain ID")
	}
	l.Op(2)
	l.Encode(41, protocol.TypeBitmap, 58, 128)
	l.Tx(41, protocol.TypeBitmap, 58)
	l.Rx(41, protocol.TypeBitmap, 58)
	l.Decode(41, protocol.TypeBitmap, 0)
	l.Paint(41, protocol.TypeBitmap)

	evs := l.Events(0)
	if len(evs) != 7 {
		t.Fatalf("got %d events, want 7", len(evs))
	}
	wantKinds := []Kind{EvInput, EvOp, EvEncode, EvTx, EvRx, EvDecode, EvPaint}
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, ev.Kind, wantKinds[i])
		}
		if ev.Cause != id {
			t.Errorf("event %d cause = %d, want %d (all events inherit the input chain)", i, ev.Cause, id)
		}
		if i > 0 && ev.T < evs[i-1].T {
			t.Errorf("event %d out of order", i)
		}
	}
	if evs[2].Seq != 41 || evs[2].A != 58 || evs[2].B != 128 {
		t.Errorf("encode event payload = %+v", evs[2])
	}
}

func TestRingWrapsKeepingNewest(t *testing.T) {
	rec := New(obs.DomainWall)
	l := rec.Session(1)
	n := len(l.slots) + 100
	for i := 0; i < n; i++ {
		l.Op(int64(i))
	}
	evs := l.Events(0)
	if len(evs) != len(l.slots) {
		t.Fatalf("got %d events after wrap, want %d", len(evs), len(l.slots))
	}
	if got, want := evs[len(evs)-1].A, int64(n-1); got != want {
		t.Errorf("newest event A = %d, want %d", got, want)
	}
	if got, want := evs[0].A, int64(100); got != want {
		t.Errorf("oldest surviving event A = %d, want %d", got, want)
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	rec := New(obs.DomainWall)
	rec.SetEnabled(false)
	l := rec.Session(1)
	l.Input(protocol.TypeKey, 'x')
	l.Encode(1, protocol.TypeFill, 10, 100)
	if evs := l.Events(0); len(evs) != 0 {
		t.Fatalf("disabled recorder stored %d events", len(evs))
	}
	if l.Armed() {
		t.Error("disabled log reports Armed")
	}
	var nilLog *SessionLog
	nilLog.Input(protocol.TypeKey, 'x') // must not panic
	nilLog.Paint(1, protocol.TypeFill)
	if nilLog.Events(0) != nil {
		t.Error("nil log returned events")
	}
}

func TestConcurrentRecordingIsSafe(t *testing.T) {
	rec := New(obs.DomainWall)
	l := rec.Session(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				l.Encode(uint32(i), protocol.TypeSet, 100, 50)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			l.Events(time.Second)
		}
	}()
	wg.Wait()
	<-done
	if got := len(l.Events(0)); got == 0 {
		t.Fatal("no events survived concurrent recording")
	}
}

func TestClockDomainSeparation(t *testing.T) {
	clk := obs.NewClock(obs.DomainSim)
	l := NewOn(clk).Session(1)
	l.RecordAt(3*time.Millisecond, Event{Kind: EvLinkTx, A: 1400})
	l.RecordAt(5*time.Millisecond, Event{Kind: EvDrop, A: 700})
	evs := l.Events(0)
	if len(evs) != 2 || evs[0].T != 3*time.Millisecond {
		t.Fatalf("sim events = %+v", evs)
	}
	// Self-stamping on a sim recorder reads the virtual clock its harness
	// moves — never wall time — and a wall ring refuses virtual timestamps.
	clk.Set(7 * time.Millisecond)
	l.Input(protocol.TypeKey, 'x')
	if evs = l.Events(0); len(evs) != 3 || evs[2].Kind != EvInput || evs[2].T != 7*time.Millisecond {
		t.Fatalf("self-stamped sim event not at the virtual clock: %+v", evs)
	}
	wall := New(obs.DomainWall)
	mustPanic(t, func() { wall.Session(1).RecordAt(time.Millisecond, Event{Kind: EvLinkTx}) })
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

func TestBreachDumpAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry(obs.DomainWall)
	rec := New(obs.DomainWall).Instrument(reg)
	rec.SetDumpDir(dir)
	const target = 150 * time.Millisecond

	l := rec.Session(3)
	cause := l.Input(protocol.TypeKey, 'q')
	l.Encode(9, protocol.TypeBitmap, 44, 128)
	l.Paint(9, protocol.TypeBitmap)

	if _, breached := rec.RecordBreach(4, 200*time.Millisecond, target); breached {
		t.Fatal("a session with no ring recorded a breach")
	}
	br, breached := rec.RecordBreach(3, 200*time.Millisecond, target)
	if !breached || br.Path == "" {
		t.Fatalf("breach not dumped: path=%q breached=%v", br.Path, breached)
	}
	path := br.Path
	if rec.BreachCount() != 1 {
		t.Errorf("breach count = %d, want 1", rec.BreachCount())
	}
	snap := reg.Snapshot()
	if snap.Counters["slim_flight_breaches_total"] != 1 {
		t.Errorf("breach counter = %d", snap.Counters["slim_flight_breaches_total"])
	}
	if snap.Gauges["slim_flight_last_breach_unix_ms"] == 0 {
		t.Error("last-breach gauge not set")
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d.Session != 3 || d.LatencyNs != int64(200*time.Millisecond) || d.ThresholdNs != int64(target) {
		t.Errorf("dump header = %+v", d)
	}
	// The causal chain survives the round trip.
	var sawInput, sawPaint bool
	for _, ev := range d.Events {
		if ev.Kind == EvInput && ev.Cause == cause {
			sawInput = true
		}
		if ev.Kind == EvPaint && ev.Seq == 9 && ev.Cause == cause {
			sawPaint = true
		}
	}
	if !sawInput || !sawPaint {
		t.Errorf("dump lost the causal chain: input=%v paint=%v", sawInput, sawPaint)
	}

	// A second breach within the gap is counted but not dumped.
	if br2, breached := rec.RecordBreach(3, 300*time.Millisecond, target); !breached || br2.Path != "" {
		t.Errorf("rate limit failed: path=%q breached=%v", br2.Path, breached)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-sess3-*.json"))
	if len(files) != 1 {
		t.Errorf("dump files = %d, want 1 (rate limited)", len(files))
	}
	if rec.BreachCount() != 2 {
		t.Errorf("breach count = %d, want 2", rec.BreachCount())
	}
}

func TestRemoveEvictsSession(t *testing.T) {
	rec := New(obs.DomainWall)
	rec.Session(5).Op(1)
	if len(rec.SessionIDs()) != 1 {
		t.Fatal("session not registered")
	}
	rec.Remove(5)
	if len(rec.SessionIDs()) != 0 {
		t.Error("session survived Remove")
	}
	if evs := rec.Events(5, 0); evs != nil {
		t.Error("dropped session still queryable")
	}
}

func TestPerfettoExportAndHandler(t *testing.T) {
	rec := New(obs.DomainWall)
	l := rec.Session(2)
	l.Input(protocol.TypeKey, 'a')
	l.Encode(1, protocol.TypeFill, 20, 1000)
	l.Tx(1, protocol.TypeFill, 20)
	l.Paint(1, protocol.TypeFill)

	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, obs.NewTraceFile(TraceEvents(nil, 2, rec.Events(2, 0)))); err != nil {
		t.Fatal(err)
	}
	assertPerfetto(t, buf.Bytes(), 2)

	// The HTTP handler speaks the same format.
	h := rec.TraceHandler()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?session=2&last=5s", nil))
	if rr.Code != 200 {
		t.Fatalf("handler status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Errorf("content type %q", ct)
	}
	assertPerfetto(t, rr.Body.Bytes(), 2)

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace?last=bogus", nil))
	if rr.Code != 400 {
		t.Errorf("bad duration: status %d, want 400", rr.Code)
	}
}

// assertPerfetto checks the bytes parse as trace-event JSON with events
// for the session, input flow arrows included.
func assertPerfetto(t *testing.T, raw []byte, session uint32) {
	t.Helper()
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			PID  uint32  `json:"pid"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("not valid trace-event JSON: %v", err)
	}
	var slices, flows int
	for _, ev := range f.TraceEvents {
		if ev.PID != session && ev.PID != 0 {
			t.Errorf("event pid %d, want %d", ev.PID, session)
		}
		switch ev.Ph {
		case "X":
			slices++
		case "s", "f":
			flows++
		}
	}
	if slices < 4 {
		t.Errorf("slices = %d, want >=4", slices)
	}
	if flows < 2 {
		t.Errorf("flow events = %d, want >=2 (input→paint arrows)", flows)
	}
}

func TestDisabledRecordAllocatesNothing(t *testing.T) {
	rec := New(obs.DomainWall)
	rec.SetEnabled(false)
	l := rec.Session(1)
	if n := testing.AllocsPerRun(100, func() {
		l.Encode(1, protocol.TypeSet, 100, 50)
	}); n != 0 {
		t.Errorf("disabled record allocates %.1f objects", n)
	}
	rec.SetEnabled(true)
	if n := testing.AllocsPerRun(100, func() {
		l.Encode(1, protocol.TypeSet, 100, 50)
	}); n != 0 {
		t.Errorf("enabled record allocates %.1f objects", n)
	}
}

// The ISSUE's overhead claim, made checkable: recording disabled must be
// within noise of not calling the recorder at all, and enabled must stay
// in the tens-of-nanoseconds class. Run with `make bench-guard` (smoke)
// or `go test -bench . ./internal/obs/flight`.

func BenchmarkRecordBaseline(b *testing.B) {
	// The call-site shape with no recorder wired: a nil log.
	var l *SessionLog
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Encode(uint32(i), protocol.TypeSet, 100, 50)
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	rec := New(obs.DomainWall)
	rec.SetEnabled(false)
	l := rec.Session(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Encode(uint32(i), protocol.TypeSet, 100, 50)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	rec := New(obs.DomainWall)
	l := rec.Session(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Encode(uint32(i), protocol.TypeSet, 100, 50)
	}
}

func BenchmarkRecordEnabledParallel(b *testing.B) {
	rec := New(obs.DomainWall)
	l := rec.Session(1)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			l.Encode(7, protocol.TypeSet, 100, 50)
		}
	})
}

// TestRetiredKindKeepsNumbers: dumps store kinds as numbers, so retiring
// TXQ (13) leaves the kinds after it where they were.
func TestRetiredKindKeepsNumbers(t *testing.T) {
	if EvBreach != 12 || EvOwe != 14 {
		t.Fatalf("BREACH = %d, OWE = %d; want 12 and 14", EvBreach, EvOwe)
	}
	if got := Kind(13).String(); got != "Kind(13)" {
		t.Errorf("the retired kind 13 reads %q", got)
	}
}
