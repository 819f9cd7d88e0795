package flight

import (
	"os"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// TestCheckBreachPathEvidence: with a path estimator wired, a WIRE breach
// dump carries the measured path state and a LINK sub-verdict.
func TestCheckBreachPathEvidence(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainWall)
	rec := New(obs.DomainWall).Instrument(reg)
	rec.SetDumpGap(0)
	rec.SetDumpDir(t.TempDir())
	l := rec.Session(1)

	// A wire-dominated chain: sent promptly, slow to arrive.
	l.Input(obs.Wall.Now(), protocol.TypeKey, 'x')
	l.Encode(obs.Wall.Now(), 9, protocol.TypeBitmap, 100, 64)
	l.Tx(obs.Wall.Now(), 9, protocol.TypeBitmap, 100)
	time.Sleep(30 * time.Millisecond)
	l.Rx(obs.Wall.Now(), 9, protocol.TypeBitmap, 100)
	l.Paint(obs.Wall.Now(), 9, protocol.TypeBitmap, 0)

	// The estimator reports a lossy path at breach time.
	var askedSession uint32
	rec.SetPathEvidence(func(session uint32, asOf time.Duration) *PathEvidence {
		askedSession = session
		return &PathEvidence{
			SRTTNs:    int64(25 * time.Millisecond),
			JitterNs:  int64(2 * time.Millisecond),
			Samples:   40,
			LossShort: 0.04,
			LossLong:  0.03,
		}
	})
	br, breached := rec.RecordBreach(1, 200*time.Millisecond, 50*time.Millisecond)
	if !breached {
		t.Fatal("breach not detected")
	}
	if askedSession != 1 {
		t.Errorf("path evidence asked for session %d, want 1", askedSession)
	}
	if br.Verdict.Stage != StageWire {
		t.Fatalf("stage = %v, want WIRE (verdict %+v)", br.Verdict.Stage, br.Verdict)
	}
	if br.Verdict.Link != LinkLoss {
		t.Errorf("link = %q, want %q (4%% short-window loss)", br.Verdict.Link, LinkLoss)
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
	if d.PathEvidence == nil {
		t.Fatal("dump has no path evidence")
	}
	if d.PathEvidence.SRTTNs != int64(25*time.Millisecond) || d.PathEvidence.LossShort != 0.04 {
		t.Errorf("dump path evidence = %+v", d.PathEvidence)
	}
	if d.Verdict == nil || d.Verdict.Link != LinkLoss {
		t.Fatalf("dump verdict = %+v, want LINK=loss", d.Verdict)
	}

	// A clean path flips the same wire breach to latency-driven.
	rec.SetPathEvidence(func(uint32, time.Duration) *PathEvidence {
		return &PathEvidence{SRTTNs: int64(120 * time.Millisecond), Samples: 40}
	})
	br, _ = rec.RecordBreach(1, 200*time.Millisecond, 50*time.Millisecond)
	if br.Verdict.Stage == StageWire && br.Verdict.Link != LinkLatency {
		t.Errorf("clean-path link = %q, want %q", br.Verdict.Link, LinkLatency)
	}

	// Unwired: no evidence in dumps, but chain loss evidence still
	// classifies the link.
	rec.SetPathEvidence(nil)
	br, _ = rec.RecordBreach(1, 200*time.Millisecond, 50*time.Millisecond)
	if br.Verdict.Stage == StageWire && br.Verdict.Link == "" {
		t.Error("WIRE verdict lost its LINK sub-verdict without a path estimator")
	}
}

// TestClassifyLink pins the sub-verdict decision table.
func TestClassifyLink(t *testing.T) {
	cases := []struct {
		name string
		v    Verdict
		pe   *PathEvidence
		want string
	}{
		{"chain loss wins", Verdict{Loss: true}, nil, LinkLoss},
		{"measured loss", Verdict{}, &PathEvidence{LossShort: 0.02}, LinkLoss},
		{"clean path", Verdict{}, &PathEvidence{SRTTNs: 1e8}, LinkLatency},
		{"sub-threshold loss", Verdict{}, &PathEvidence{LossShort: 0.001}, LinkLatency},
		{"no evidence", Verdict{}, nil, LinkLatency},
	}
	for _, c := range cases {
		if got := classifyLink(&c.v, c.pe); got != c.want {
			t.Errorf("%s: classifyLink = %q, want %q", c.name, got, c.want)
		}
	}
}
