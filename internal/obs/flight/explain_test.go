package flight

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// TestDumpDirIsBounded: MaxDumps+k dumped breaches leave MaxDumps files,
// the newest ones, and a file that is not a dump is neither listed nor
// rotated away.
func TestDumpDirIsBounded(t *testing.T) {
	const extra = 5
	dir := t.TempDir()
	rec := New(obs.DomainWall)
	rec.SetDumpDir(dir)
	rec.SetDumpGap(0)
	bystander := filepath.Join(dir, "flight-notes.json")
	if err := os.WriteFile(bystander, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	var written []string
	for i := 0; i < MaxDumps+extra; i++ {
		l := rec.Session(uint32(1 + i%3))
		l.Input(obs.Wall.Now(), protocol.TypeKey, 'a')
		br, breached := rec.RecordBreach(uint32(1+i%3), time.Second, 150*time.Millisecond)
		if !breached || br.Path == "" {
			t.Fatalf("breach %d: breached=%v path=%q", i, breached, br.Path)
		}
		written = append(written, br.Path)
	}
	kept, err := ListDumps(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != MaxDumps {
		t.Fatalf("%d dumps kept, want %d", len(kept), MaxDumps)
	}
	for i, path := range written[extra:] {
		if kept[i] != path {
			t.Fatalf("kept[%d] = %s, want %s: the newest must survive, listed oldest first", i, kept[i], path)
		}
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Errorf("rotation removed a file that is not a dump: %v", err)
	}
}

// TestTraceEventsDeterministic: the same events export to the same bytes,
// flow-arrow finishes included (they used to follow map order), and the
// events come out in timestamp order.
func TestTraceEventsDeterministic(t *testing.T) {
	var evs []Event
	for chain := uint64(1); chain <= 40; chain++ {
		at := time.Duration(chain) * time.Millisecond
		evs = append(evs,
			Event{T: at, Kind: EvInput, Cmd: protocol.TypeKey, Cause: chain},
			Event{T: at + 10*time.Microsecond, Kind: EvEncode, Cmd: protocol.TypeFill, Seq: uint32(chain), Cause: chain},
			Event{T: at + 20*time.Microsecond, Kind: EvPaint, Cmd: protocol.TypeFill, Seq: uint32(chain), Cause: chain},
			Event{T: at + 30*time.Microsecond, Kind: EvPaint, Cmd: protocol.TypeFill, Seq: uint32(chain), Cause: chain},
		)
	}
	export := func() []byte {
		var buf bytes.Buffer
		if err := obs.WriteJSON(&buf, obs.NewTraceFile(TraceEvents(nil, 7, evs))); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	for i := 0; i < 5; i++ {
		if !bytes.Equal(first, export()) {
			t.Fatal("two exports of the same events differ")
		}
	}
	var finishes int
	last := -1.0
	for _, te := range TraceEvents(nil, 7, evs) {
		if te.Ph == "M" {
			continue
		}
		if te.TS < last {
			t.Fatalf("event %q at %v µs follows one at %v µs", te.Name, te.TS, last)
		}
		last = te.TS
		if te.Ph == "f" {
			finishes++
		}
	}
	if finishes != 40 {
		t.Errorf("%d flow finishes, want one per chain (on its last paint)", finishes)
	}
}

// TestBlameReattributes: a dump is blamed under its stamped verdict unless
// asked otherwise or it has none, in which case the events are re-walked;
// the table splits by session once there are two.
func TestBlameReattributes(t *testing.T) {
	// 200 ms on the wire: a re-walk says WIRE whatever the stamp says.
	evs := []Event{
		{T: 0, Kind: EvInput, Cmd: protocol.TypeKey, Cause: 9},
		{T: time.Millisecond, Kind: EvEncode, Seq: 4, Cause: 9},
		{T: 2 * time.Millisecond, Kind: EvTx, Seq: 4, Cause: 9},
		{T: 202 * time.Millisecond, Kind: EvRx, Seq: 4, Cause: 9},
		{T: 203 * time.Millisecond, Kind: EvPaint, Seq: 4, Cause: 9},
		{T: 204 * time.Millisecond, Kind: EvBreach, Cause: 9},
	}
	stamped := &Dump{Session: 1, LatencyNs: int64(203 * time.Millisecond), Events: evs,
		Verdict: &Verdict{Chain: 9, Stage: StageQueue, QueueNs: int64(time.Millisecond)}}
	bare := &Dump{Session: 2, LatencyNs: int64(203 * time.Millisecond), Events: evs}
	if v := Reattribute(bare); v.Stage != StageWire || v.Chain != 9 {
		t.Fatalf("Reattribute(no verdict) = %+v, want WIRE on chain 9 (from the BREACH marker)", v)
	}

	var trusted, rewalked Blame
	for _, d := range []*Dump{stamped, bare} {
		trusted.Add(d, false)
		rewalked.Add(d, true)
	}
	if trusted.Total.Counts[StageQueue] != 1 || trusted.Total.Counts[StageWire] != 1 {
		t.Errorf("trusting stamps: %+v, want the stamped QUEUE and the verdict-less dump re-walked to WIRE", trusted.Total.Counts)
	}
	if rewalked.Total.Counts[StageWire] != 2 {
		t.Errorf("-reattribute: %+v, want both WIRE", rewalked.Total.Counts)
	}
	var out strings.Builder
	if err := trusted.Format(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 dumps from 2 sessions", "\nsession 1:\n", "\nsession 2:\n", "QUEUE", "WIRE"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("blame output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	stamped.WriteSummary(&out)
	for _, want := range []string{"session 1", "event census (1 causal chains)", "BREACH", "last causal chain (id 9)", "seq=4"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dump summary lacks %q:\n%s", want, out.String())
		}
	}
}
