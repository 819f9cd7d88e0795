package flight

import (
	"os"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// ms builds an event timestamp.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// TestAttributeWireLoss walks the canonical loss chain: the command is
// encoded and sent promptly, dropped on the wire, nacked by the console
// when the gap is noticed, retransmitted (under a later input's chain ID,
// as live servers do), and finally painted. The verdict must blame the
// wire, with loss evidence, not the stages that were fast.
func TestAttributeWireLoss(t *testing.T) {
	const chain = 7
	evs := []Event{
		{T: ms(0), Kind: EvInput, Cmd: protocol.TypeKey, Cause: chain},
		{T: ms(2), Kind: EvEncode, Cmd: protocol.TypeBitmap, Seq: 41, Cause: chain, A: 300},
		{T: ms(3), Kind: EvTx, Cmd: protocol.TypeBitmap, Seq: 41, Cause: chain},
		{T: ms(3), Kind: EvDrop, Cmd: protocol.TypeBitmap, Seq: 41, Cause: chain},
		// Next input's traffic reveals the gap; everything below carries a
		// later chain ID.
		{T: ms(200), Kind: EvNack, Cmd: protocol.TypeNack, Cause: chain + 1, A: 41, B: 41},
		{T: ms(201), Kind: EvTx, Cmd: protocol.TypeBitmap, Seq: 41, Cause: chain + 1},
		{T: ms(205), Kind: EvRx, Cmd: protocol.TypeBitmap, Seq: 41, Cause: chain + 1},
		// A dump written before DECODE (kind 6) was retired holds one at
		// the PAINT instant; it attributes as before.
		{T: ms(207), Kind: 6, Cmd: protocol.TypeBitmap, Seq: 41, Cause: chain + 1},
		{T: ms(207), Kind: EvPaint, Cmd: protocol.TypeBitmap, Seq: 41, Cause: chain + 1},
	}
	v := Attribute(evs, chain, ms(207), nil)
	if v.Stage != StageWire {
		t.Fatalf("stage = %v, want WIRE (verdict %+v)", v.Stage, v)
	}
	if !v.Loss {
		t.Error("loss evidence not detected")
	}
	if got, want := v.WireNs, int64(202*time.Millisecond); got != want {
		t.Errorf("wire time = %v, want %v", time.Duration(got), time.Duration(want))
	}
	if v.Seqs != 1 || v.Painted != 1 {
		t.Errorf("seqs=%d painted=%d, want 1/1", v.Seqs, v.Painted)
	}
}

// TestAttributeQueue blames the send path when the command sat between
// ENCODE and TX for most of the latency.
func TestAttributeQueue(t *testing.T) {
	const chain = 9
	evs := []Event{
		{T: ms(0), Kind: EvInput, Cmd: protocol.TypeKey, Cause: chain},
		{T: ms(1), Kind: EvEncode, Cmd: protocol.TypeFill, Seq: 10, Cause: chain},
		{T: ms(180), Kind: EvTx, Cmd: protocol.TypeFill, Seq: 10, Cause: chain},
		{T: ms(183), Kind: EvRx, Cmd: protocol.TypeFill, Seq: 10, Cause: chain},
		{T: ms(184), Kind: EvPaint, Cmd: protocol.TypeFill, Seq: 10, Cause: chain},
	}
	v := Attribute(evs, chain, ms(184), nil)
	if v.Stage != StageQueue {
		t.Fatalf("stage = %v, want QUEUE (verdict %+v)", v.Stage, v)
	}
	if v.Loss {
		t.Error("queueing misreported as loss")
	}
}

// TestAttributeEncodeAndDecode covers the compute-bound stages.
func TestAttributeEncodeAndDecode(t *testing.T) {
	const chain = 11
	enc := []Event{
		{T: ms(0), Kind: EvInput, Cause: chain},
		{T: ms(170), Kind: EvEncode, Seq: 3, Cause: chain},
		{T: ms(171), Kind: EvTx, Seq: 3, Cause: chain},
		{T: ms(172), Kind: EvRx, Seq: 3, Cause: chain},
		{T: ms(173), Kind: EvPaint, Seq: 3, Cause: chain},
	}
	if v := Attribute(enc, chain, ms(173), nil); v.Stage != StageEncode {
		t.Errorf("stage = %v, want ENCODE", v.Stage)
	}
	dec := []Event{
		{T: ms(0), Kind: EvInput, Cause: chain},
		{T: ms(1), Kind: EvEncode, Seq: 3, Cause: chain},
		{T: ms(2), Kind: EvTx, Seq: 3, Cause: chain},
		{T: ms(3), Kind: EvRx, Seq: 3, Cause: chain},
		{T: ms(162), Kind: 6, Seq: 3, Cause: chain}, // a retired DECODE
		{T: ms(162), Kind: EvPaint, Seq: 3, Cause: chain},
	}
	if v := Attribute(dec, chain, ms(162), nil); v.Stage != StageDecode {
		t.Errorf("stage = %v, want DECODE", v.Stage)
	}
}

// TestAttributeOpenChain charges an in-flight command's elapsed time to
// the stage holding it: sent but never received means the wire owes it.
func TestAttributeOpenChain(t *testing.T) {
	const chain = 13
	evs := []Event{
		{T: ms(0), Kind: EvInput, Cause: chain},
		{T: ms(1), Kind: EvEncode, Seq: 8, Cause: chain},
		{T: ms(2), Kind: EvTx, Seq: 8, Cause: chain},
	}
	v := Attribute(evs, chain, ms(200), nil)
	if v.Stage != StageWire {
		t.Fatalf("stage = %v, want WIRE for a command lost in flight", v.Stage)
	}
	if got, want := v.WireNs, int64(198*time.Millisecond); got != want {
		t.Errorf("wire time = %v, want %v", time.Duration(got), time.Duration(want))
	}
	if v.Painted != 0 {
		t.Errorf("painted = %d, want 0", v.Painted)
	}
}

// TestAttributeUnattributed: no chain, a chain whose input is gone, and a
// chain that encoded nothing all degrade to UNATTRIBUTED.
func TestAttributeUnattributed(t *testing.T) {
	if v := Attribute(nil, 0, ms(100), nil); v.Stage != StageUnattributed {
		t.Errorf("zero chain: stage = %v", v.Stage)
	}
	// Input overwritten: only downstream events survive.
	evs := []Event{
		{T: ms(5), Kind: EvEncode, Seq: 2, Cause: 3},
		{T: ms(6), Kind: EvTx, Seq: 2, Cause: 3},
	}
	if v := Attribute(evs, 3, ms(200), nil); v.Stage != StageUnattributed {
		t.Errorf("missing input: stage = %v, want UNATTRIBUTED", v.Stage)
	}
	// Input survives but its encoded commands were truncated out.
	evs = []Event{{T: ms(0), Kind: EvInput, Cause: 3}}
	if v := Attribute(evs, 3, ms(200), nil); v.Stage != StageUnattributed {
		t.Errorf("missing commands: stage = %v, want UNATTRIBUTED", v.Stage)
	}
}

// TestAttributeTruncatedRing is the satellite regression: a breach whose
// chain head was already overwritten in the live ring must come back
// UNATTRIBUTED from RecordBreach, never misclassified from the partial
// tail. The ring is flooded between the input and the breach check so the
// INPUT (and ENCODE) slots are gone but the breach is still detected.
func TestAttributeTruncatedRing(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	rec := New(obs.DomainWall).Instrument(reg)
	l := rec.Session(1)

	l.Input(obs.Wall.Now(), protocol.TypeKey, 'x')
	l.Encode(obs.Wall.Now(), 1, protocol.TypeBitmap, 100, 64)
	l.Tx(obs.Wall.Now(), 1, protocol.TypeBitmap, 100)
	// Flood the ring: far more events than DefaultRingSize, all under the
	// same chain, overwriting the head of the chain.
	for i := 0; i < DefaultRingSize+64; i++ {
		l.Status(uint32(i), 0)
	}
	br, breached := rec.RecordBreach(1, 400*time.Millisecond, 150*time.Millisecond)
	if !breached {
		t.Fatal("breach not detected on a truncated ring")
	}
	if br.Verdict.Stage != StageUnattributed {
		t.Fatalf("truncated ring attributed to %v, want UNATTRIBUTED", br.Verdict.Stage)
	}
}

// TestAttributeHost covers the HOST verdict: a chain whose lifetime is
// covered by a recorded GC or CPU-starvation window is blamed on the host
// runtime, not on whichever pipeline stage the stall happened to inflate.
func TestAttributeHost(t *testing.T) {
	const chain = 21
	// The command sat "in the wire" for 180 ms — but the whole interval was
	// a CPU-starvation episode on this host, so WIRE was a victim.
	evs := []Event{
		{T: ms(0), Kind: EvInput, Cause: chain},
		{T: ms(1), Kind: EvEncode, Seq: 5, Cause: chain},
		{T: ms(2), Kind: EvTx, Seq: 5, Cause: chain},
		{T: ms(182), Kind: EvRx, Seq: 5, Cause: chain},
		{T: ms(183), Kind: EvPaint, Seq: 5, Cause: chain},
	}
	wins := []HostWindow{{Start: ms(0), End: ms(185), Kind: "cpu", WorstNs: int64(ms(90))}}
	v := Attribute(evs, chain, ms(183), wins)
	if v.Stage != StageHost {
		t.Fatalf("stage = %v, want HOST (verdict %+v)", v.Stage, v)
	}
	if v.HostKind != "cpu" {
		t.Errorf("host kind = %q, want cpu", v.HostKind)
	}
	if got, want := v.HostNs, int64(183*time.Millisecond); got != want {
		t.Errorf("host overlap = %v, want %v", time.Duration(got), time.Duration(want))
	}

	// A short GC pause inside a long genuine wire stall stays WIRE — but
	// the overlap is kept as evidence.
	wins = []HostWindow{{Start: ms(10), End: ms(40), Kind: "gc", WorstNs: int64(ms(25))}}
	v = Attribute(evs, chain, ms(183), wins)
	if v.Stage != StageWire {
		t.Fatalf("stage = %v, want WIRE for a minor pause (verdict %+v)", v.Stage, v)
	}
	if v.HostNs != int64(30*time.Millisecond) || v.HostKind != "gc" {
		t.Errorf("host evidence = %v/%q, want 30ms/gc", time.Duration(v.HostNs), v.HostKind)
	}

	// Windows of both kinds covering the chain report combined evidence;
	// HostNs is the max per-kind overlap (the kinds often flag the same
	// wall-clock interval, so summing them would double-count).
	wins = []HostWindow{
		{Start: ms(0), End: ms(185), Kind: "gc"},
		{Start: ms(0), End: ms(185), Kind: "cpu"},
	}
	v = Attribute(evs, chain, ms(183), wins)
	if v.Stage != StageHost || v.HostKind != "gc+cpu" {
		t.Errorf("combined evidence: stage=%v kind=%q, want HOST/gc+cpu", v.Stage, v.HostKind)
	}

	// Disjoint windows leave the verdict untouched.
	wins = []HostWindow{{Start: ms(300), End: ms(400), Kind: "gc"}}
	v = Attribute(evs, chain, ms(183), wins)
	if v.Stage != StageWire || v.HostNs != 0 || v.HostKind != "" {
		t.Errorf("disjoint window polluted verdict %+v", v)
	}
}

// TestCheckBreachHostEvidence wires host evidence into a live recorder and
// asserts the breach path consumes it: the verdict comes back HOST and the
// dump carries the windows for offline reattribution.
func TestCheckBreachHostEvidence(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	rec := New(obs.DomainWall).Instrument(reg)
	rec.SetDumpGap(0)
	dir := t.TempDir()
	rec.SetDumpDir(dir)
	l := rec.Session(1)

	l.Input(obs.Wall.Now(), protocol.TypeKey, 'x')
	l.Encode(obs.Wall.Now(), 9, protocol.TypeBitmap, 100, 64)
	l.Tx(obs.Wall.Now(), 9, protocol.TypeBitmap, 100)
	time.Sleep(20 * time.Millisecond)
	l.Rx(obs.Wall.Now(), 9, protocol.TypeBitmap, 100)
	l.Paint(obs.Wall.Now(), 9, protocol.TypeBitmap, 0)

	// The monitor saw the whole run as one starvation episode.
	rec.SetHostEvidence(func(asOf time.Duration) []HostWindow {
		return []HostWindow{{Start: 0, End: asOf, Kind: "cpu", WorstNs: int64(20 * time.Millisecond)}}
	})
	br, breached := rec.RecordBreach(1, 200*time.Millisecond, 50*time.Millisecond)
	if !breached {
		t.Fatal("breach not detected")
	}
	if br.Verdict.Stage != StageHost {
		t.Fatalf("stage = %v, want HOST (verdict %+v)", br.Verdict.Stage, br.Verdict)
	}
	if br.Path == "" {
		t.Fatal("no dump written")
	}
	f, err := os.Open(br.Path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ReadDump(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.HostWindows) != 1 || d.HostWindows[0].Kind != "cpu" {
		t.Fatalf("dump host windows = %+v, want the cpu window", d.HostWindows)
	}
	if d.Verdict == nil || d.Verdict.Stage != StageHost {
		t.Fatalf("dump verdict = %+v, want HOST", d.Verdict)
	}

	// Unwiring the evidence reverts to pipeline-only attribution.
	rec.SetHostEvidence(nil)
	br, _ = rec.RecordBreach(1, 200*time.Millisecond, 50*time.Millisecond)
	if br.Verdict.Stage == StageHost {
		t.Error("HOST verdict without wired evidence")
	}
}

// TestBlameTable checks aggregation, shares, and the rendered table.
func TestBlameTable(t *testing.T) {
	var bt BlameTable
	for i := 0; i < 9; i++ {
		bt.AddVerdict(Verdict{Stage: StageWire, WireNs: int64(ms(200)), Loss: true}, int64(ms(220)))
	}
	bt.AddVerdict(Verdict{Stage: StageUnattributed}, int64(ms(300)))
	if bt.Total != 10 || bt.Unattributed != 1 || bt.Loss != 9 {
		t.Fatalf("table totals = %+v", bt)
	}
	if got := bt.Share(StageWire); got != 0.9 {
		t.Errorf("wire share = %v, want 0.9", got)
	}
	var sb strings.Builder
	if err := bt.Format(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"10 breaches", "WIRE", "90.0%", "UNATTRIBUTED"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestVerdictJSONRoundTrip pins the dump wire format: stages serialize by
// name and survive a round trip.
func TestVerdictJSONRoundTrip(t *testing.T) {
	st := StageWire
	b, err := st.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"WIRE"` {
		t.Fatalf("stage JSON = %s", b)
	}
	var back Stage
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != StageWire {
		t.Fatalf("round trip = %v", back)
	}
	if _, err := ParseStage("NOPE"); err == nil {
		t.Error("ParseStage accepted garbage")
	}
}
