package experiments

import (
	"strings"
	"testing"
	"time"

	"slim/internal/netsim"
	"slim/internal/workload"
)

func TestCompareVNCMatchesPaperClaims(t *testing.T) {
	for _, app := range []workload.App{workload.Netscape, workload.PIM} {
		r, err := CompareVNC(app, 10, 3, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		// §8.3: even on a low-latency, high-bandwidth network, VNC is
		// "fairly sluggish" — the poll interval dominates its latency.
		if r.VNCLatency.Mean() < 10*r.SlimLatency.Mean() {
			t.Errorf("%s: VNC latency %.1fms not ≫ SLIM %.3fms",
				app, r.VNCLatency.Mean()*1e3, r.SlimLatency.Mean()*1e3)
		}
		// The pull model ships raw deltas: it cannot use COPY/BITMAP, so
		// even with RLE it needs more bandwidth than SLIM here.
		if r.VNCRLEMbps <= r.SlimMbps {
			t.Errorf("%s: VNC RLE %.4f Mbps not above SLIM %.4f", app, r.VNCRLEMbps, r.SlimMbps)
		}
		// Coalescing is real but small at interactive rates.
		if r.CoalescedPct < 0 || r.CoalescedPct > 60 {
			t.Errorf("%s: coalesced %.1f%%", app, r.CoalescedPct)
		}
	}
	// Faster polling trades bandwidth for latency.
	slow, err := CompareVNC(workload.PIM, 2, 3, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := CompareVNC(workload.PIM, 20, 3, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if fast.VNCLatency.Mean() >= slow.VNCLatency.Mean() {
		t.Error("faster polling did not cut latency")
	}
	if fast.VNCRawMbps < slow.VNCRawMbps {
		t.Error("faster polling did not raise bandwidth")
	}
}

func TestMixedLoadAllocation(t *testing.T) {
	r, err := MixedLoad()
	if err != nil {
		t.Fatal(err)
	}
	// The smallest request (GUI) is granted in full (§7's sorted grant).
	if r.GUIGrantMbps != r.GUIRequestMbps {
		t.Errorf("GUI grant %.1f != request %.1f", r.GUIGrantMbps, r.GUIRequestMbps)
	}
	// Grants never exceed the fabric.
	if total := r.GUIGrantMbps + r.GrantA + r.GrantB; total > 100.01 {
		t.Errorf("grants total %.1f Mbps on a 100 Mbps console", total)
	}
	// The throttled stream respects its grant.
	if r.VideoB.Mbps > r.GrantB*1.01 {
		t.Errorf("Quake used %.1f Mbps above its %.1f grant", r.VideoB.Mbps, r.GrantB)
	}
	// Both streams still run at watchable rates.
	if r.VideoA.AchievedHz < 15 || r.VideoB.AchievedHz < 15 {
		t.Errorf("rates collapsed: %.1f / %.1f Hz", r.VideoA.AchievedHz, r.VideoB.AchievedHz)
	}
}

func TestQoSAblationShieldsYardstick(t *testing.T) {
	rows := QoSAblation(testCorpus, workload.Netscape, []int{16}, 30*time.Second)
	if len(rows) != 1 {
		t.Fatal("missing row")
	}
	r := rows[0]
	if r.Fair < 50*time.Millisecond {
		t.Fatalf("fair baseline not overloaded: %v", r.Fair)
	}
	if r.Prio > r.Fair/10 {
		t.Errorf("interactive priority added %v vs fair %v", r.Prio, r.Fair)
	}
}

func TestWMTrafficCopyDominates(t *testing.T) {
	r, err := WMTraffic(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Events < 30 {
		t.Fatalf("only %d events in 5 minutes", r.Events)
	}
	// Window drags ride on COPY: most affected pixels move for free.
	if r.CopyShare < 0.5 {
		t.Errorf("COPY moved only %.0f%% of pixels", 100*r.CopyShare)
	}
	// SLIM crushes both baselines on management traffic.
	if r.SlimBytes*10 > r.XBytes {
		t.Errorf("SLIM %d bytes not well below X %d", r.SlimBytes, r.XBytes)
	}
	if r.Compression < 50 {
		t.Errorf("compression only %.0fx", r.Compression)
	}
	// And it stays far under 1 Mbps — window management is cheap.
	if r.SlimMbps > 1 {
		t.Errorf("management traffic %.2f Mbps", r.SlimMbps)
	}
	if out := RenderWMTraffic(r); !strings.Contains(out, "COPY") {
		t.Error("render incomplete")
	}
}

// TestLowBandwidthPacketCounts pins §5.4's PIM row at slimbench's default
// seed and duration: 1,842 plain datagrams packed into 1,215 as the UDP
// endpoint packs them, to core.MaxDatagram. A burst that kept wires the
// encoder reuses, or the 1,400-byte limit, moves the batched count.
func TestLowBandwidthPacketCounts(t *testing.T) {
	r, err := LowBandwidth(workload.PIM, netsim.Rate128Kbps, 1999, 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if r.PlainPkts != 1842 || r.BatchedPkts != 1215 {
		t.Errorf("PIM sent %d plain and %d batched packets, want 1842 and 1215", r.PlainPkts, r.BatchedPkts)
	}
}

func TestLowBandwidthBatchingSaves(t *testing.T) {
	for _, app := range []workload.App{workload.PIM, workload.FrameMaker} {
		r, err := LowBandwidth(app, netsim.Rate128Kbps, 3, 2*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if r.BytesSaved <= 0 {
			t.Errorf("%s: batching saved %.2f%%", app, 100*r.BytesSaved)
		}
		if r.BatchedPkts >= r.PlainPkts {
			t.Errorf("%s: batching did not reduce packets (%d vs %d)",
				app, r.BatchedPkts, r.PlainPkts)
		}
		// Correctness side: both streams carry the whole session, so the
		// byte totals differ only by framing overhead (< 25%).
		if r.BatchBytes < r.PlainBytes*3/4 {
			t.Errorf("%s: batched bytes %d suspiciously below plain %d",
				app, r.BatchBytes, r.PlainBytes)
		}
	}
}
