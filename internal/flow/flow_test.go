package flow

import (
	"math/rand"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/obs"
	"slim/internal/protocol"
)

// fillItem builds a FILL item with real wire framing.
func fillItem(seq uint32, r protocol.Rect, c protocol.Pixel) Item {
	msg := &protocol.Fill{Rect: r, Color: c}
	return Item{Seq: seq, Cmd: protocol.TypeFill, Msg: msg, Wire: protocol.Encode(nil, seq, msg)}
}

func copyItem(seq uint32, src protocol.Rect, dx, dy int) Item {
	msg := &protocol.Copy{Rect: src, DstX: dx, DstY: dy}
	return Item{Seq: seq, Cmd: protocol.TypeCopy, Msg: msg, Wire: protocol.Encode(nil, seq, msg)}
}

func setItem(seq uint32, r protocol.Rect, c protocol.Pixel) Item {
	px := make([]protocol.Pixel, r.Pixels())
	for i := range px {
		px[i] = c
	}
	msg := &protocol.Set{Rect: r, Pixels: px}
	return Item{Seq: seq, Cmd: protocol.TypeSet, Msg: msg, Wire: protocol.Encode(nil, seq, msg)}
}

func TestUngovernedPassesThrough(t *testing.T) {
	g := NewGovernor(Config{}, nil)
	res := g.Submit(0, fillItem(1, protocol.Rect{W: 10, H: 10}, 0))
	if !res.Pass {
		t.Fatal("ungoverned submit should pass through")
	}
	if g.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d, want 0", g.QueueDepth())
	}
}

func TestGrantQueuesAndPaces(t *testing.T) {
	g := NewGovernor(Config{BurstBytes: 64, MaxQueueBytes: 1 << 20}, nil)
	g.SetGrant(0, 8000) // 1000 bytes/s
	it := fillItem(1, protocol.Rect{W: 4, H: 4}, 1)
	size := it.Bytes()
	// First submit fits in the 64-byte burst; queue more than the burst
	// covers and they must wait for refill.
	n := 10
	for i := 0; i < n; i++ {
		it := fillItem(uint32(i+1), protocol.Rect{X: i * 10, W: 4, H: 4}, 1)
		if res := g.Submit(0, it); res.Pass {
			t.Fatal("granted governor must queue")
		}
	}
	first := g.Release(0)
	got := 0
	for _, p := range first {
		got += len(p.Items)
	}
	if want := 64 / size; got != want {
		t.Fatalf("burst released %d commands, want %d (size %d)", got, want, size)
	}
	// After one second, 1000 bytes of tokens arrive (capped at burst —
	// but drained continuously they cover 1000/size more commands).
	total := got
	for ms := 50; ms <= 1000; ms += 50 {
		for _, p := range g.Release(time.Duration(ms) * time.Millisecond) {
			total += len(p.Items)
		}
	}
	want := min(n, (64+1000)/size)
	if total != want {
		t.Fatalf("released %d commands after 1s, want %d", total, want)
	}
	if _, ok := g.NextRelease(time.Second); ok != (total < n) {
		t.Fatalf("NextRelease ok = %v with %d/%d released", ok, total, n)
	}
}

// TestPacingWindowBoundProperty: over any 100 ms window, released bytes
// never exceed grant/8 × 0.1 s plus one burst (plus one oversized command,
// which may exceed the burst only when the bucket is full).
func TestPacingWindowBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rate := uint64(rng.Intn(990)+10) * 1000 // 10k..1M bps
		burst := rng.Intn(8<<10) + 512
		g := NewGovernor(Config{BurstBytes: burst, MaxQueueBytes: 1 << 30}, nil)
		g.SetGrant(0, rate)

		type rel struct {
			at    time.Duration
			bytes int
		}
		var rels []rel
		maxItem := 0
		now := time.Duration(0)
		seq := uint32(0)
		record := func(pkts []Packet) {
			for _, p := range pkts {
				n := 0
				for _, it := range p.Items {
					n += it.Bytes()
				}
				rels = append(rels, rel{at: now, bytes: n})
			}
		}
		for step := 0; step < 400; step++ {
			now += time.Duration(rng.Intn(20_000)) * time.Microsecond
			k := rng.Intn(4)
			for i := 0; i < k; i++ {
				seq++
				side := rng.Intn(200) + 1
				it := setItem(seq, protocol.Rect{X: rng.Intn(100), Y: rng.Intn(100), W: side, H: 1}, protocol.Pixel(rng.Uint32()))
				if b := it.Bytes(); b > maxItem {
					maxItem = b
				}
				g.Submit(now, it)
			}
			record(g.Release(now))
		}
		// Sliding 100 ms window over every release point.
		const win = 100 * time.Millisecond
		bound := float64(rate)/8*win.Seconds() + float64(max(burst, maxItem)) + 1
		for i := range rels {
			sum := 0
			for j := i; j < len(rels) && rels[j].at-rels[i].at <= win; j++ {
				sum += rels[j].bytes
			}
			if float64(sum) > bound {
				t.Fatalf("trial %d: %d bytes released in a 100ms window, bound %.0f (rate %d bps, burst %d, maxItem %d)",
					trial, sum, bound, rate, burst, maxItem)
			}
		}
	}
}

// TestAdmitHoldsTheQueueToABurst: an ungoverned session admits any paint;
// under a grant a paint is admitted while less than a burst is queued and
// it fits under MaxQueueBytes, and each refusal is counted as owed.
func TestAdmitHoldsTheQueueToABurst(t *testing.T) {
	r := obs.NewRegistry(obs.DomainWall)
	g := NewGovernor(Config{BurstBytes: 100, MaxQueueBytes: 1000}, NewMetrics(r, r.Labeled("session", "a")))
	if !g.Admit(1 << 30) {
		t.Fatal("an ungoverned governor refused a paint")
	}
	g.SetGrant(0, 8) // one byte a second: nothing released after the burst
	if !g.Admit(1000) || g.Admit(1001) {
		t.Fatal("an empty queue must admit exactly what fits under MaxQueueBytes")
	}
	it := setItem(1, protocol.Rect{W: 30, H: 1}, 1) // 110 B: over the burst
	g.Submit(0, it)
	g.Release(0) // leaves on the full bucket
	for seq := uint32(2); g.QueueBytes() < 100; seq++ {
		if !g.Admit(1) {
			t.Fatalf("refused a paint with %d bytes queued, under the burst", g.QueueBytes())
		}
		g.Submit(0, fillItem(seq, protocol.Rect{X: int(seq), W: 1, H: 1}, 1))
	}
	if g.Admit(1) {
		t.Fatalf("admitted a paint with %d bytes queued, a burst or more", g.QueueBytes())
	}
	if got := r.Snapshot().Counters["slim_flow_owed_total"]; got != 2 {
		t.Fatalf("owed_total = %d, want the 2 refusals", got)
	}
}

// packBurst runs one Release's wires through the packer the socket endpoint
// runs on every burst, returning the datagrams that would leave.
func packBurst(pkts []Packet) [][]byte {
	var wires, out [][]byte
	for _, p := range pkts {
		wires = append(wires, p.Wire)
	}
	for len(wires) > 0 {
		d, n := protocol.PackFrame(nil, wires, core.MaxDatagram)
		out = append(out, d)
		wires = wires[n:]
	}
	return out
}

// The governor frames nothing itself: each released command is its own
// Packet with its plain wire, and the commands one quantum releases are a
// burst the endpoint coalesces into one §5.4 frame.
func TestReleasedFillsPackIntoOneFrame(t *testing.T) {
	g := NewGovernor(Config{BurstBytes: 1 << 16, MaxQueueBytes: 1 << 20}, nil)
	g.SetGrant(0, 1<<30)
	for seq := uint32(1); seq <= 8; seq++ {
		g.Submit(0, fillItem(seq, protocol.Rect{X: int(seq), W: 2, H: 2}, protocol.Pixel(seq)))
	}
	pkts := g.Release(time.Millisecond)
	if len(pkts) != 8 {
		t.Fatalf("got %d packets, want one per command", len(pkts))
	}
	for i, p := range pkts {
		if len(p.Items) != 1 || p.Items[0].Seq != uint32(i+1) || protocol.IsBatch(p.Wire) {
			t.Fatalf("packet %d: %d items, framed=%v", i, len(p.Items), protocol.IsBatch(p.Wire))
		}
	}
	out := packBurst(pkts)
	if len(out) != 1 || !protocol.IsBatch(out[0]) {
		t.Fatalf("burst left as %d datagrams, want 1 frame", len(out))
	}
	seqs, msgs, err := protocol.DecodeBatch(out[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 8 {
		t.Fatalf("frame holds %d msgs, want 8", len(msgs))
	}
	for i, s := range seqs {
		if s != pkts[i].Items[0].Seq {
			t.Fatalf("frame seq %d = %d, want %d", i, s, pkts[i].Items[0].Seq)
		}
	}
}

func TestReleasedLargeCommandStaysPlain(t *testing.T) {
	g := NewGovernor(Config{BurstBytes: 1 << 20, MaxQueueBytes: 1 << 24}, nil)
	g.SetGrant(0, 1<<30)
	g.Submit(0, fillItem(1, protocol.Rect{W: 2, H: 2}, 1))
	g.Submit(0, setItem(2, protocol.Rect{W: 600, H: 1}, 2)) // 1,820 B: over any frame
	g.Submit(0, fillItem(3, protocol.Rect{W: 2, H: 2}, 3))
	pkts := g.Release(time.Millisecond)
	out := packBurst(pkts)
	if len(pkts) != 3 || len(out) != 3 {
		t.Fatalf("got %d packets, %d datagrams, want 3 and 3 (fill, plain set, fill)", len(pkts), len(out))
	}
	// Sequence order and the plain wires survive the packer.
	for i, d := range out {
		seq, _, _, err := protocol.Decode(d)
		if err != nil || seq != uint32(i+1) {
			t.Fatalf("datagram %d: seq %d, err %v", i, seq, err)
		}
	}
}

func TestMetricsPublish(t *testing.T) {
	r := obs.NewRegistry(obs.DomainWall)
	series := r.Labeled("session", "alice")
	m := NewMetrics(r, series)
	g := NewGovernor(Config{BurstBytes: 1 << 20, MaxQueueBytes: 1 << 20}, m)
	g.SetGrant(0, 1)
	g.Submit(0, fillItem(1, protocol.Rect{X: 1, Y: 1, W: 4, H: 4}, 1))
	g.Admit(1 << 21)
	snap := r.Snapshot()
	if snap.Counters["slim_flow_owed_total"] != 1 {
		t.Fatalf("owed_total = %d, want 1", snap.Counters["slim_flow_owed_total"])
	}
	if snap.Gauges[`slim_flow_queue_depth{session="alice"}`] != 1 {
		t.Fatalf("queue depth gauge = %d, want 1", snap.Gauges[`slim_flow_queue_depth{session="alice"}`])
	}
	if snap.Gauges[`slim_flow_grant_bps{session="alice"}`] != 1 {
		t.Fatal("grant gauge missing")
	}
	// Utilization publishes once a window elapses; repayment bytes are
	// charged as they leave, not as they are queued.
	owed := fillItem(3, protocol.Rect{X: 20, W: 4, H: 4}, 3)
	owed.Retransmit = true
	g.Submit(0, owed)
	if got := r.Snapshot().Counters["slim_flow_retransmit_bytes_total"]; got != 0 {
		t.Fatalf("retransmit_bytes_total = %d with the repaint still queued", got)
	}
	g.SetGrant(0, 1<<20)
	g.Release(time.Millisecond)
	g.Release(2 * time.Second)
	snap = r.Snapshot()
	if got := snap.Counters["slim_flow_retransmit_bytes_total"]; got != int64(owed.Bytes()) {
		t.Fatalf("retransmit_bytes_total = %d after release, want %d", got, owed.Bytes())
	}
	if _, ok := snap.Gauges[`slim_flow_grant_utilization{session="alice"}`]; !ok {
		t.Fatal("grant utilization gauge missing")
	}
	series.Remove()
	snap = r.Snapshot()
	if _, ok := snap.Gauges[`slim_flow_queue_depth{session="alice"}`]; ok {
		t.Fatal("Remove left per-session gauges behind")
	}
	if _, ok := snap.Counters["slim_flow_owed_total"]; !ok {
		t.Fatal("Remove must keep shared totals")
	}
}

// TestUngovernedZeroAlloc pins the disabled-path allocation count at zero,
// admission included (governed too: Admit is arithmetic); the benchmarks in
// bench guard it over time.
func TestUngovernedZeroAlloc(t *testing.T) {
	g := NewGovernor(Config{}, nil)
	it := fillItem(1, protocol.Rect{W: 8, H: 8}, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		g.Admit(it.Bytes())
		g.Submit(0, it)
		g.Release(0)
	})
	if allocs != 0 {
		t.Fatalf("ungoverned admit+submit+release allocates %.1f per op, want 0", allocs)
	}
	r := obs.NewRegistry(obs.DomainWall)
	paced := NewGovernor(Config{BurstBytes: 1}, NewMetrics(r, r.Labeled("session", "a")))
	paced.SetGrant(0, 8)
	paced.Submit(0, it)
	if allocs := testing.AllocsPerRun(1000, func() { paced.Admit(it.Bytes()) }); allocs != 0 {
		t.Fatalf("a governed refusal allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkSubmitUngoverned(b *testing.B) {
	g := NewGovernor(Config{}, nil)
	it := fillItem(1, protocol.Rect{W: 8, H: 8}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Submit(0, it)
		g.Release(0)
	}
}

func BenchmarkSubmitGoverned(b *testing.B) {
	g := NewGovernor(Config{BurstBytes: 1 << 16, MaxQueueBytes: 1 << 20}, nil)
	g.SetGrant(0, 1<<30)
	it := fillItem(1, protocol.Rect{W: 8, H: 8}, 1)
	b.ReportAllocs()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		g.Submit(now, it)
		g.Release(now)
	}
}

// TestSetCostsRecomputesDerivedConfig: a calibrated cost model must flow
// into the demand/burst arithmetic the caller left to the defaults, while
// explicit operator settings survive recalibration.
func TestSetCostsRecomputesDerivedConfig(t *testing.T) {
	g := NewGovernor(Config{Enabled: true}, nil)
	before := g.Config()
	// A console measured 4x slower than Table 5 halves what a quantum can
	// decode: demand and burst must shrink.
	slow := core.SunRay1Costs()
	for ty, v := range slow.PerPixel {
		slow.PerPixel[ty] = v * 4
	}
	for f, v := range slow.CSCSPerPixel {
		slow.CSCSPerPixel[f] = v * 4
	}
	g.SetCosts(slow)
	after := g.Config()
	if after.InitialBps >= before.InitialBps {
		t.Fatalf("demand did not shrink for a slower console: %d → %d",
			before.InitialBps, after.InitialBps)
	}
	if after.InitialBps != DefaultDemandBps(slow) {
		t.Fatalf("demand = %d, want DefaultDemandBps = %d", after.InitialBps, DefaultDemandBps(slow))
	}
	if after.BurstBytes != DefaultBurst(slow) {
		t.Fatalf("burst = %d, want DefaultBurst = %d", after.BurstBytes, DefaultBurst(slow))
	}
	// Nil models are ignored.
	g.SetCosts(nil)
	if g.Config().InitialBps != after.InitialBps {
		t.Fatal("nil SetCosts changed the config")
	}
}

// TestSetCostsPreservesExplicitConfig: operator-pinned demand and burst
// are not recomputed.
func TestSetCostsPreservesExplicitConfig(t *testing.T) {
	g := NewGovernor(Config{Enabled: true, InitialBps: 123456, BurstBytes: 4096}, nil)
	slow := core.SunRay1Costs()
	for ty, v := range slow.PerPixel {
		slow.PerPixel[ty] = v * 10
	}
	g.SetCosts(slow)
	cfg := g.Config()
	if cfg.InitialBps != 123456 || cfg.BurstBytes != 4096 {
		t.Fatalf("explicit config clobbered: %+v", cfg)
	}
	if cfg.Costs != slow {
		t.Fatal("cost model itself should still update")
	}
}

func TestPacedBytesAccounting(t *testing.T) {
	// Ungoverned pass-throughs count immediately.
	g := NewGovernor(Config{}, nil)
	it := fillItem(1, protocol.Rect{W: 4, H: 4}, 1)
	size := int64(it.Bytes())
	g.Submit(0, it)
	if total, retrans := g.PacedBytes(); total != size || retrans != 0 {
		t.Fatalf("pass-through paced = (%d, %d), want (%d, 0)", total, retrans, size)
	}
	rt := fillItem(2, protocol.Rect{X: 10, W: 4, H: 4}, 1)
	rt.Retransmit = true
	g.Submit(0, rt)
	if total, retrans := g.PacedBytes(); total != 2*size || retrans != size {
		t.Fatalf("retransmit paced = (%d, %d), want (%d, %d)", total, retrans, 2*size, size)
	}

	// Governed: queued bytes count only when the bucket releases them.
	g = NewGovernor(Config{BurstBytes: int(size), MaxQueueBytes: 1 << 20}, nil)
	g.SetGrant(0, 8*uint64(size)) // size bytes/s: one command per second
	g.Submit(0, fillItem(1, protocol.Rect{W: 4, H: 4}, 1))
	g.Submit(0, fillItem(2, protocol.Rect{X: 10, W: 4, H: 4}, 1))
	if total, _ := g.PacedBytes(); total != 0 {
		t.Fatalf("queued bytes already paced: %d", total)
	}
	g.Release(0)
	if total, _ := g.PacedBytes(); total != size {
		t.Fatalf("paced after burst = %d, want %d", total, size)
	}
	g.Release(time.Second)
	if total, retrans := g.PacedBytes(); total != 2*size || retrans != 0 {
		t.Fatalf("paced after refill = (%d, %d), want (%d, 0)", total, retrans, 2*size)
	}
}

// TestDemandBpsTracksMeasuredRate pins the gen-2 demand feedback: before
// a measurement window completes the session claims its full cost-model
// ceiling (a fresh attachment is about to take a repaint), afterwards the
// claim follows actual wire bytes — 2× headroom, floored at ceiling/8,
// capped at the ceiling — and Reset forgets the measurement so the next
// console starts from the ceiling again.
func TestDemandBpsTracksMeasuredRate(t *testing.T) {
	const ceiling = 8000
	g := NewGovernor(Config{InitialBps: ceiling}, nil)
	if got := g.DemandBps(); got != ceiling {
		t.Fatalf("demand before first window = %d, want ceiling %d", got, ceiling)
	}

	// Sparse traffic: a few commands inside one utilization window.
	size := fillItem(1, protocol.Rect{W: 8, H: 8}, 0).Bytes()
	const n = 6
	var sent int64
	for i := 0; i < n; i++ {
		it := fillItem(uint32(i+1), protocol.Rect{X: i * 10, W: 8, H: 8}, 0)
		g.Submit(time.Duration(i)*time.Millisecond, it)
		sent += int64(it.Bytes())
	}
	// Any call at now ≥ 1 s closes the window; this submit lands in the next.
	g.Submit(time.Second, fillItem(n+1, protocol.Rect{X: 100, W: 8, H: 8}, 0))

	measured := uint64(sent * 8) // bits over a 1 s window
	want := 2 * measured
	if floor := uint64(ceiling / 8); want < floor {
		want = floor
	}
	if want > ceiling {
		want = ceiling
	}
	if got := g.DemandBps(); got != want {
		t.Fatalf("demand after %d bytes/s = %d, want %d (item size %d)", sent, got, want, size)
	}
	if got := g.DemandBps(); got <= ceiling/8 || got >= ceiling {
		t.Fatalf("test content did not land mid-range: demand %d, ceiling %d", got, ceiling)
	}

	// A busy window claims at most the ceiling: the console could not
	// decode more even if the wire carried it.
	for i := 0; i < 200; i++ {
		it := fillItem(uint32(100+i), protocol.Rect{X: (i % 30) * 10, Y: 40, W: 8, H: 8}, 0)
		g.Submit(time.Second+time.Duration(i)*time.Millisecond, it)
	}
	g.Submit(2200*time.Millisecond, fillItem(999, protocol.Rect{Y: 80, W: 8, H: 8}, 0))
	if got := g.DemandBps(); got != ceiling {
		t.Fatalf("busy demand = %d, want capped at ceiling %d", got, ceiling)
	}

	// An idle window drops to the floor, never zero: the session must
	// stay reachable at interactive latency.
	g.Submit(3300*time.Millisecond, fillItem(1000, protocol.Rect{Y: 120, W: 8, H: 8}, 0))
	if got, floor := g.DemandBps(), uint64(ceiling/8); got != floor {
		t.Fatalf("idle demand = %d, want floor %d", got, floor)
	}

	// Hotdesk: the measurement says nothing about the new console.
	g.Reset(3400 * time.Millisecond)
	if got := g.DemandBps(); got != ceiling {
		t.Fatalf("demand after Reset = %d, want ceiling %d", got, ceiling)
	}
}
