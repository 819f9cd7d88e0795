package trace

import (
	"testing"
	"time"

	"slim/internal/obs/flight"
	"slim/internal/protocol"
)

func TestFromFlight(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	evs := []flight.Event{
		{T: ms(100), Kind: flight.EvInput, Cmd: protocol.TypeKey, Cause: 1, A: 'a'},
		{T: ms(101), Kind: flight.Kind(2), Cause: 1, A: 96}, // a retired OP an old dump may hold
		{T: ms(102), Kind: flight.EvEncode, Cmd: protocol.TypeBitmap, Seq: 7, Cause: 1, A: 60, B: 96},
		{T: ms(103), Kind: flight.EvTx, Cmd: protocol.TypeBitmap, Seq: 7, Cause: 1, A: 60},
		{T: ms(104), Kind: flight.EvRx, Cmd: protocol.TypeBitmap, Seq: 7, Cause: 1, A: 60},
		{T: ms(105), Kind: flight.EvPaint, Cmd: protocol.TypeBitmap, Seq: 7, Cause: 1},
		{T: ms(200), Kind: flight.EvInput, Cmd: protocol.TypePointer, Cause: 2, A: 5 << 16},
		{T: ms(202), Kind: flight.EvEncode, Cmd: protocol.TypeFill, Seq: 8, Cause: 2, A: 24, B: 2048},
	}
	tr := FromFlight("typing", evs)

	if tr.App != "typing" {
		t.Errorf("App = %q", tr.App)
	}
	if got := len(tr.Records); got != 4 {
		t.Fatalf("records = %d, want 4 (2 inputs + 2 encodes; pipeline legs skipped)", got)
	}
	if tr.Records[0].T != 0 {
		t.Errorf("first record T = %v, want 0 (rebased)", tr.Records[0].T)
	}
	if tr.Records[0].Kind != KindKey || tr.Records[2].Kind != KindClick {
		t.Errorf("input kinds = %v, %v; want key, click", tr.Records[0].Kind, tr.Records[2].Kind)
	}
	d := tr.Records[1]
	if d.Kind != KindDisplay || d.Cmd != protocol.TypeBitmap || d.Bytes != 60 || d.Pixels != 96 {
		t.Errorf("display record = %+v", d)
	}
	if tr.Duration != ms(102) {
		t.Errorf("Duration = %v, want 102ms (200+2 rebased by 100)", tr.Duration)
	}
	if tr.InputCount() != 2 {
		t.Errorf("InputCount = %d, want 2", tr.InputCount())
	}
	// The converted trace feeds the standard §5.2 post-processing.
	totals := tr.PerEventTotals()
	if len(totals) != 2 || totals[0].Bytes != 60 || totals[1].Pixels != 2048 {
		t.Errorf("PerEventTotals = %+v", totals)
	}
}

func TestFromFlightDump(t *testing.T) {
	d := &flight.Dump{
		Session: 3,
		Events: []flight.Event{
			{T: time.Second, Kind: flight.EvInput, Cmd: protocol.TypeKey, Cause: 9},
			{T: time.Second + time.Millisecond, Kind: flight.EvEncode,
				Cmd: protocol.TypeCopy, Seq: 1, Cause: 9, A: 28, B: 512},
		},
	}
	tr := FromFlightDump(d)
	if tr.User != 3 {
		t.Errorf("User = %d, want the dump's session ID", tr.User)
	}
	if len(tr.Records) != 2 || tr.Records[1].Bytes != 28 {
		t.Errorf("records = %+v", tr.Records)
	}
}
