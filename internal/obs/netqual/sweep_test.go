package netqual

import (
	"testing"
	"time"

	"slim/internal/benchfile"
)

func assertPoint(t *testing.T, p BenchPoint) {
	t.Helper()
	if p.RTTErrPct > RTTTolerancePct {
		t.Errorf("rtt=%gms loss=%g%%: SRTT %gms vs truth, err %.1f%% > %d%%",
			p.RTTMs, p.LossPct, p.EstRTTMs, p.RTTErrPct, RTTTolerancePct)
	}
	if p.LossErrPP > LossTolerancePP {
		t.Errorf("rtt=%gms loss=%g%%: est loss %.2f%%, err %.2fpp > %.1fpp",
			p.RTTMs, p.LossPct, p.EstLossPct, p.LossErrPP, LossTolerancePP)
	}
	if p.Samples <= 0 {
		t.Errorf("rtt=%gms loss=%g%%: no RTT samples", p.RTTMs, p.LossPct)
	}
	if p.GoodputMbps <= 0 {
		t.Errorf("rtt=%gms loss=%g%%: no goodput measured", p.RTTMs, p.LossPct)
	}
}

// TestNetqualSmoke is the CI LAN point: 1 ms RTT, 0% and 3% loss, a short
// run. Seconds of wall time (`make netqual-smoke`).
func TestNetqualSmoke(t *testing.T) {
	for _, loss := range []float64{0, 0.03} {
		p := RunPoint(time.Millisecond, loss, 15*time.Second)
		assertPoint(t, p)
		if loss == 0 && p.EstLossPct != 0 {
			t.Errorf("clean link estimated %.2f%% loss", p.EstLossPct)
		}
	}
}

// TestAccuracySweep runs the full RTT 1–300 ms × loss 0–10% matrix and
// holds every cell to the acceptance tolerances (RTT within 15%, loss
// within 1 pp at steady state).
func TestAccuracySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix skipped in -short")
	}
	b := RunSweep()
	if want := len(SweepRTTs) * len(SweepLosses); len(b.Points) != want {
		t.Fatalf("sweep produced %d points, want %d", len(b.Points), want)
	}
	for _, p := range b.Points {
		assertPoint(t, p)
	}
}

// TestCommittedBench validates the artifact committed at the repo root:
// parseable, current schema, full matrix coverage, and every cell inside
// the tolerances. A sweep change that regenerates BENCH_netqual.json
// keeps this green; one that forgets to regenerate it fails here.
func TestCommittedBench(t *testing.T) {
	var b Bench
	benchfile.Committed(t, "BENCH_netqual.json", BenchSchema, "make netqual", &b)
	if want := len(SweepRTTs) * len(SweepLosses); len(b.Points) != want {
		t.Fatalf("artifact has %d points, want the %d-cell matrix (regenerate with: make netqual)",
			len(b.Points), want)
	}
	seen := make(map[[2]float64]bool)
	for _, p := range b.Points {
		assertPoint(t, p)
		seen[[2]float64{p.RTTMs, p.LossPct}] = true
	}
	for _, rtt := range SweepRTTs {
		for _, loss := range SweepLosses {
			key := [2]float64{ms(rtt), loss * 100}
			if !seen[key] {
				t.Errorf("matrix cell rtt=%gms loss=%g%% missing from artifact", key[0], key[1])
			}
		}
	}
}
