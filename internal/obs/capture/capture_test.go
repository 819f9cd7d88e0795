package capture

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// wireFor encodes one message as a single-command datagram.
func wireFor(t *testing.T, seq uint32, msg protocol.Message) []byte {
	t.Helper()
	return protocol.Encode(nil, seq, msg)
}

func sampleSet(w, h int) *protocol.Set {
	px := make([]protocol.Pixel, w*h)
	return &protocol.Set{Rect: protocol.Rect{W: w, H: h}, Pixels: px}
}

func TestRingDisabledRecordsNothing(t *testing.T) {
	r := NewRing(4)
	r.Tap(DirDown, "c1", -1, []byte{1, 2, 3}, time.Millisecond)
	r.TapSize(DirDown, 1, 99, time.Millisecond)
	if got := r.Drain(); len(got) != 0 {
		t.Fatalf("disabled ring recorded %d records", len(got))
	}
	var nilRing *Ring
	if nilRing.Enabled() {
		t.Fatal("nil ring reports enabled")
	}
	nilRing.Tap(DirDown, "", -1, nil, 0) // must not panic
	nilRing.SetEnabled(true)
	if nilRing.Drain() != nil || nilRing.Drops() != 0 {
		t.Fatal("nil ring not inert")
	}
}

func TestRingTapDrainRoundTrip(t *testing.T) {
	r := NewRing(8)
	r.SetEnabled(true)
	w1 := []byte{1, 2, 3, 4}
	r.Tap(DirDown, "console-a", 7, w1, 5*time.Millisecond)
	w1[0] = 0xff // caller reuse must not corrupt the ring's copy
	r.TapSize(DirUp, 3, 1200, 6*time.Millisecond)
	recs := r.Drain()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Dir != DirDown || recs[0].Console != "console-a" || recs[0].Flow != 7 ||
		recs[0].Size != 4 || recs[0].T != 5*time.Millisecond {
		t.Fatalf("bad record 0: %+v", recs[0])
	}
	if !bytes.Equal(recs[0].Wire, []byte{1, 2, 3, 4}) {
		t.Fatalf("ring copy corrupted by caller reuse: %v", recs[0].Wire)
	}
	if recs[1].Wire != nil || recs[1].Size != 1200 || recs[1].Dir != DirUp {
		t.Fatalf("bad size-only record: %+v", recs[1])
	}
	if got := r.Drain(); len(got) != 0 {
		t.Fatalf("drain not empty after drain: %d", len(got))
	}
}

func TestRingFullDropsNewestAndCounts(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	r := NewRing(2).Instrument(reg)
	r.SetEnabled(true)
	for i := 0; i < 5; i++ {
		r.Tap(DirDown, "", -1, []byte{byte(i)}, time.Duration(i))
	}
	if got := r.Drops(); got != 3 {
		t.Fatalf("drops = %d, want 3", got)
	}
	recs := r.Drain()
	if len(recs) != 2 || recs[0].Wire[0] != 0 || recs[1].Wire[0] != 1 {
		t.Fatalf("ring should keep the oldest records: %+v", recs)
	}
	snap := reg.Snapshot()
	if snap.Counters["slim_capture_ring_drops_total"] != 3 {
		t.Fatalf("drop counter = %d, want 3", snap.Counters["slim_capture_ring_drops_total"])
	}
	if snap.Counters["slim_capture_records_total"] != 2 {
		t.Fatalf("records counter = %d, want 2", snap.Counters["slim_capture_records_total"])
	}
}

func TestSlimcapRoundTrip(t *testing.T) {
	r := NewRing(16)
	r.SetEnabled(true)
	epoch := time.Unix(942364800, 0) // fixed instant, keeps the test deterministic
	set := sampleSet(8, 4)
	r.Tap(DirDown, "c1", -1, wireFor(t, 1, set), 10*time.Millisecond)
	r.Tap(DirUp, "c1", -1, wireFor(t, 0, &protocol.Status{LastSeq: 1}), 11*time.Millisecond)
	r.TapSize(DirDown, 2, 333, 12*time.Millisecond)

	var buf bytes.Buffer
	if err := WriteHeader(&buf, obs.DomainWall, epoch); err != nil {
		t.Fatal(err)
	}
	n, err := r.SpoolTo(&buf)
	if err != nil || n != 3 {
		t.Fatalf("SpoolTo = %d, %v; want 3, nil", n, err)
	}
	// Second spool on an empty ring writes nothing.
	if n, err := r.SpoolTo(&buf); err != nil || n != 0 {
		t.Fatalf("empty SpoolTo = %d, %v", n, err)
	}

	h, recs, err := ReadCapture(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != SlimcapVersion || h.Domain != obs.DomainWall || !h.Epoch.Equal(epoch) {
		t.Fatalf("bad header: %+v", h)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].T != 10*time.Millisecond || recs[0].Dir != DirDown || recs[0].Console != "c1" {
		t.Fatalf("bad record 0: %+v", recs[0])
	}
	if recs[0].Flow != -1 {
		t.Fatalf("flow -1 did not survive the round trip: %d", recs[0].Flow)
	}
	if !bytes.Equal(recs[0].Wire, wireFor(t, 1, set)) {
		t.Fatal("wire bytes did not survive the round trip")
	}
	if recs[2].Wire != nil || recs[2].Size != 333 || recs[2].Flow != 2 {
		t.Fatalf("bad size-only record: %+v", recs[2])
	}
}

func TestReadCaptureRejectsGarbage(t *testing.T) {
	if _, err := ReadHeader(strings.NewReader("NOPE")); err == nil {
		t.Fatal("short/bad magic accepted")
	}
	var buf bytes.Buffer
	WriteHeader(&buf, obs.DomainSim, time.Time{})
	full := AppendRecord(nil, Record{T: time.Second, Dir: DirDown, Size: 3, Wire: []byte{1, 2, 3}})
	buf.Write(full[:len(full)-1]) // truncate mid-record
	if _, _, err := ReadCapture(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("truncated record accepted")
	}
	// A negative timestamp is on no clock's timeline (the path replay's
	// windows index by it): found by FuzzExplainInput.
	early := AppendRecord(nil, Record{T: -time.Second, Dir: DirUp, Size: 3, Wire: []byte{1, 2, 3}})
	if _, err := ReadRecord(bytes.NewReader(early)); !errors.Is(err, ErrBadCapture) {
		t.Fatalf("negative timestamp: err = %v, want ErrBadCapture", err)
	}
}

func TestBuildReportShape(t *testing.T) {
	var recs []Record
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	add := func(dir Direction, tms int, msg protocol.Message) {
		w := protocol.Encode(nil, 1, msg)
		recs = append(recs, Record{T: at(tms), Dir: dir, Size: len(w), Wire: w})
	}
	add(DirDown, 0, sampleSet(16, 1))   // 16 px
	add(DirDown, 100, sampleSet(16, 1)) // 16 px
	add(DirDown, 200, &protocol.Fill{Rect: protocol.Rect{W: 100, H: 100}, Color: 1})
	add(DirUp, 500, &protocol.Status{LastSeq: 2})
	// One batch of two commands.
	bw, err := protocol.EncodeBatch(nil, []uint32{3, 4}, []protocol.Message{
		&protocol.Copy{Rect: protocol.Rect{W: 10, H: 10}, DstX: 1, DstY: 1},
		&protocol.Fill{Rect: protocol.Rect{W: 2, H: 2}, Color: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	recs = append(recs, Record{T: at(1000), Dir: DirDown, Size: len(bw), Wire: bw})
	// One size-only record.
	recs = append(recs, Record{T: at(1000), Dir: DirDown, Size: 999})

	rep := BuildReport(Header{Version: 1, Domain: obs.DomainSim}, recs)
	if rep.Duration != time.Second {
		t.Fatalf("duration = %v, want 1s", rep.Duration)
	}
	rows := map[string]Row{}
	for _, r := range rep.Down {
		rows[r.Label] = r
	}
	set := rows["SET"]
	if set.Count != 2 || set.Pixels != 32 {
		t.Fatalf("SET row = %+v", set)
	}
	if fill := rows["FILL"]; fill.Count != 2 || fill.Pixels != 100*100+4 {
		t.Fatalf("FILL row = %+v", fill)
	}
	if copyRow := rows["COPY"]; copyRow.Count != 1 || copyRow.Pixels != 100 {
		t.Fatalf("COPY row = %+v", copyRow)
	}
	if _, ok := rows["RAW"]; !ok || rep.SizeOnly != 1 {
		t.Fatalf("size-only record not reported: %+v", rep)
	}
	if len(rep.Up) != 1 || rep.Up[0].Label != "STATUS" {
		t.Fatalf("up rows = %+v", rep.Up)
	}
	if rep.Undecoded != 0 {
		t.Fatalf("undecoded = %d", rep.Undecoded)
	}
	// Rates derive from the observed span.
	if got := rep.Rate(set); got != 2 {
		t.Fatalf("SET rate = %v cmd/s, want 2", got)
	}
	if got := rep.Bps(set); got != float64(set.Bytes)*8 {
		t.Fatalf("SET bps = %v", got)
	}

	var out strings.Builder
	if err := rep.WriteTable(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"server → console", "console → server", "SET", "FILL", "STATUS", "%bytes", "B/px"} {
		if !strings.Contains(text, want) {
			t.Fatalf("table output missing %q:\n%s", want, text)
		}
	}
}

func TestBuildReportCountsUndecodable(t *testing.T) {
	rep := BuildReport(Header{}, []Record{
		{T: 0, Dir: DirDown, Size: 5, Wire: []byte{9, 9, 9, 9, 9}},
	})
	if rep.Undecoded != 1 {
		t.Fatalf("undecoded = %d, want 1", rep.Undecoded)
	}
}

func TestTraceEvents(t *testing.T) {
	set := sampleSet(4, 4)
	recs := []Record{
		{T: 2 * time.Millisecond, Dir: DirDown, Size: 10, Wire: protocol.Encode(nil, 1, set)},
		{T: 3 * time.Millisecond, Dir: DirUp, Size: 22, Wire: protocol.Encode(nil, 0, &protocol.Nack{From: 1, To: 2})},
		{T: 4 * time.Millisecond, Dir: DirDown, Flow: 3, Size: 555},
	}
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, obs.NewTraceFile(TraceEvents(nil, Header{Domain: obs.DomainWall}, recs))); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range f.TraceEvents {
		names = append(names, ev.Name)
	}
	joined := strings.Join(names, " ")
	for _, want := range []string{"SET", "NACK", "RAW 555B", "thread_name"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("perfetto export missing %q in %q", want, joined)
		}
	}
	// Instants must land on the direction tracks at microsecond timestamps.
	last := f.TraceEvents[len(f.TraceEvents)-1]
	if last.TS != 4000 || last.TID != int(DirDown) {
		t.Fatalf("bad instant placement: %+v", last)
	}
}

// TestDisabledTapAllocatesNothing is the capture half of the overhead
// contract shared with the flight recorder: a disabled tap must not
// allocate, so the hooks can live on every transport send path.
func TestDisabledTapAllocatesNothing(t *testing.T) {
	r := NewRing(4)
	wire := []byte{1, 2, 3, 4}
	if allocs := testing.AllocsPerRun(100, func() {
		if r.Enabled() {
			r.Tap(DirDown, "c", -1, wire, 0)
		}
	}); allocs != 0 {
		t.Fatalf("disabled tap allocates %v times per run", allocs)
	}
	var nilRing *Ring
	if allocs := testing.AllocsPerRun(100, func() {
		if nilRing.Enabled() {
			nilRing.Tap(DirDown, "c", -1, wire, 0)
		}
	}); allocs != 0 {
		t.Fatalf("nil-ring tap allocates %v times per run", allocs)
	}
}

// TestEnabledSteadyStateDoesNotAllocate: once every slot's wire buffer has
// grown to the datagram size, tap+spool cycles reuse slot storage.
func TestEnabledTapReusesSlotStorage(t *testing.T) {
	r := NewRing(4)
	r.SetEnabled(true)
	wire := make([]byte, 512)
	// Warm every slot.
	for i := 0; i < 4; i++ {
		r.Tap(DirDown, "c", -1, wire, 0)
	}
	r.mu.Lock()
	r.head, r.n = 0, 0
	r.mu.Unlock()
	if allocs := testing.AllocsPerRun(50, func() {
		r.Tap(DirDown, "c", -1, wire, 0)
		r.mu.Lock()
		r.head, r.n = 0, 0
		r.mu.Unlock()
	}); allocs != 0 {
		t.Fatalf("warmed enabled tap allocates %v times per run", allocs)
	}
}

// Benchmarks: the bench-guard asserts the disabled path stays identical to
// the no-capture baseline (and 0 allocs/op); see Makefile bench-guard.

var benchWire = make([]byte, 1400)

// BenchmarkTapBaseline is the reference: the send path with no ring at all.
func BenchmarkTapBaseline(b *testing.B) {
	var r *Ring
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			r.Tap(DirDown, "c", -1, benchWire, 0)
		}
	}
}

// BenchmarkTapDisabled is the shipped configuration: ring present, gate off.
func BenchmarkTapDisabled(b *testing.B) {
	r := NewRing(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			r.Tap(DirDown, "c", -1, benchWire, 0)
		}
	}
}

func BenchmarkTapEnabled(b *testing.B) {
	r := NewRing(64)
	r.SetEnabled(true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if r.Enabled() {
			r.Tap(DirDown, "c", -1, benchWire, time.Duration(i))
		}
		if i%64 == 63 {
			r.mu.Lock()
			r.head, r.n = 0, 0
			r.mu.Unlock()
		}
	}
}

func BenchmarkSpool(b *testing.B) {
	r := NewRing(256)
	r.SetEnabled(true)
	var sink bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%256 == 0 {
			for j := 0; j < 256; j++ {
				r.Tap(DirDown, "c", -1, benchWire, time.Duration(j))
			}
			sink.Reset()
		}
		r.SpoolTo(&sink)
	}
}

// TestWalk: the one record splitter hands out every message of a batch
// frame and of plain messages laid end to end, with sequence numbers and
// charged sizes, and reports what did not decode.
func TestWalk(t *testing.T) {
	fill := &protocol.Fill{Rect: protocol.Rect{W: 2, H: 2}, Color: 2}
	status := &protocol.Status{LastSeq: 9}
	batch, err := protocol.EncodeBatch(nil, []uint32{7, 8}, []protocol.Message{
		&protocol.Copy{Rect: protocol.Rect{W: 10, H: 10}, DstX: 1, DstY: 1}, fill})
	if err != nil {
		t.Fatal(err)
	}
	plain := protocol.Encode(protocol.Encode(nil, 3, fill), 4, status)
	type seen struct {
		seq  uint32
		typ  protocol.MsgType
		size int
	}
	for _, tc := range []struct {
		name  string
		wire  []byte
		batch bool
		rest  int
		want  []seen
	}{
		{"batch", batch, true, 0, []seen{
			{7, protocol.TypeCopy, protocol.WireSize(&protocol.Copy{})}, {8, protocol.TypeFill, protocol.WireSize(fill)}}},
		{"plain pair", plain, false, 0, []seen{
			{3, protocol.TypeFill, protocol.WireSize(fill)}, {4, protocol.TypeStatus, protocol.WireSize(status)}}},
		{"plain then garbage", append(append([]byte(nil), plain...), 1, 2, 3), false, 3, []seen{
			{3, protocol.TypeFill, protocol.WireSize(fill)}, {4, protocol.TypeStatus, protocol.WireSize(status)}}},
		{"cut batch", batch[:len(batch)-1], true, len(batch) - 1, nil},
		{"garbage", []byte{9, 9, 9, 9, 9}, false, 5, nil},
		{"size only", nil, false, 0, nil},
	} {
		var got []seen
		isBatch, rest := Record{Wire: tc.wire, Size: len(tc.wire)}.Walk(func(seq uint32, m protocol.Message, size int) {
			got = append(got, seen{seq, m.Type(), size})
		})
		if isBatch != tc.batch || rest != tc.rest || !slices.Equal(got, tc.want) {
			t.Errorf("%s: batch=%v rest=%d msgs=%v; want batch=%v rest=%d msgs=%v",
				tc.name, isBatch, rest, got, tc.batch, tc.rest, tc.want)
		}
	}
}
