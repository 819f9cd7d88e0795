package flow

import (
	"math/rand"
	"testing"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// fillItem builds a FILL item with real wire framing.
func fillItem(seq uint32, r protocol.Rect, c protocol.Pixel) Item {
	msg := &protocol.Fill{Rect: r, Color: c}
	return Item{Seq: seq, Cmd: protocol.TypeFill, Msg: msg, Wire: protocol.Encode(nil, seq, msg)}
}

// TestGovernorPacesFromItsFirstByte: a new governor holds a full burst
// and refills at InitialBps before any grant arrives, so a paint larger
// than it may overdraw the bucket by is refused and what is sent is
// charged. A grant changes the rate and nothing else: it does not refill
// the bucket.
func TestGovernorPacesFromItsFirstByte(t *testing.T) {
	g := NewGovernor(Config{InitialBps: 8000, BurstBytes: 1000}, nil) // 1000 bytes a second
	if got := g.Tokens(0); got != 1000 {
		t.Fatalf("a new governor holds %d tokens, want the 1000 B burst", got)
	}
	if g.Admit(0, burstCeiling+1) {
		t.Fatal("a governor with no grant yet admitted a paint larger than burstCeiling")
	}
	g.Submit(0, Item{Wire: make([]byte, 1000)})
	if got := g.ReadyAt(0, 1000); got != time.Second {
		t.Fatalf("a spent bucket refills at InitialBps by %v, want 1s", got)
	}
	g.SetGrant(0, 16000)
	if got := g.Tokens(0); got != 0 {
		t.Fatalf("a grant left %d tokens in a spent bucket, want 0: it only sets the rate", got)
	}
	if got := g.ReadyAt(0, 1000); got != 500*time.Millisecond {
		t.Fatalf("a spent bucket refills at the grant by %v, want 500ms", got)
	}
}

// TestZeroGrantPacesAtTheFloor: a zero fair share (§7: a console with
// nothing left to give) neither lifts pacing nor wedges the session. A
// 1 MB paint is refused, and a spent bucket refills at MinGrantBps, so
// ReadyAt names a finite instant and a paint is admitted there.
func TestZeroGrantPacesAtTheFloor(t *testing.T) {
	r := obs.NewRegistry(obs.DomainWall)
	g := NewGovernor(Config{BurstBytes: 1000}, NewMetrics(r, r.Labeled("session", "a")))
	g.SetGrant(0, 0)
	if g.Admit(0, 1<<20) {
		t.Fatal("a zero grant admitted a 1 MB paint")
	}
	g.Submit(0, Item{Wire: make([]byte, 1000)})
	at := g.ReadyAt(0, 1000)
	if want := 1000 * 8 * time.Second / MinGrantBps; at != want {
		t.Fatalf("a spent bucket under a zero grant holds a burst again at %v, want %v", at, want)
	}
	if !g.Admit(at, 1000) {
		t.Fatal("refused a burst-sized paint when ReadyAt said the bucket holds it")
	}
	if got := r.Snapshot().Gauges[`slim_flow_grant_bps{session="a"}`]; got != 0 {
		t.Fatalf("grant gauge = %d, want the console's 0", got)
	}
}

// TestAdmitHoldsTheQueueToABurst: what a governed session sends ahead of
// its grant is held to one paint of at most burstCeiling. A paint is
// admitted when the tokens cover it, or when no debt is outstanding and it
// is at most burstCeiling; while the bucket is in debt nothing more is
// admitted, and each refusal is counted as owed. A 59 KB video frame — the
// size video_udp sends — is admitted on non-negative tokens and owed on
// negative ones.
func TestAdmitHoldsTheQueueToABurst(t *testing.T) {
	r := obs.NewRegistry(obs.DomainWall)
	g := NewGovernor(Config{BurstBytes: 1000}, NewMetrics(r, r.Labeled("session", "a")))
	g.SetGrant(0, 8000) // 1000 bytes a second
	const frame = 59 << 10
	if !g.Admit(0, 1000) || !g.Admit(0, frame) || g.Admit(0, burstCeiling+1) {
		t.Fatal("a full bucket must admit up to burstCeiling and no more")
	}
	g.Submit(0, Item{Wire: make([]byte, frame)})
	if g.Admit(0, 1) {
		t.Fatal("admitted a paint while the bucket is in debt")
	}
	if got := r.Snapshot().Counters["slim_flow_owed_total"]; got != 2 {
		t.Fatalf("owed_total = %d, want the 2 refusals", got)
	}
}

// TestGrantQueuesAndPaces: under a grant a full bucket's burst leaves at once,
// what Submit charges comes out of the tokens at once, and the debt a
// larger paint runs up is paid back at the grant's pace — ReadyAt names
// the instant, and the next paint waits for it.
func TestGrantQueuesAndPaces(t *testing.T) {
	g := NewGovernor(Config{BurstBytes: 1000}, nil)
	g.SetGrant(0, 8000) // 1000 bytes a second
	if got := g.Tokens(0); got != 1000 {
		t.Fatalf("the bucket holds %d tokens, want the 1000 B burst", got)
	}
	const frame = 59 << 10
	g.Submit(0, Item{Wire: make([]byte, frame)})
	if got := g.Tokens(0); got != 1000-frame {
		t.Fatalf("tokens after a %d B frame = %d, want %d", frame, got, 1000-frame)
	}
	back := g.ReadyAt(0, 0)
	if want := time.Duration(frame-1000) * time.Millisecond; back < want || back > want+time.Microsecond {
		t.Fatalf("out of debt at %v, want %v", back, want)
	}
	if g.Admit(back-time.Millisecond, frame) {
		t.Fatal("admitted the next frame a millisecond before the debt was paid")
	}
	if !g.Admit(back+time.Millisecond, frame) {
		t.Fatal("refused a frame on non-negative tokens")
	}
}

// TestPacingWindowBoundProperty: a session sends what Admit takes and owes
// the rest, so over any window T the bytes it sends never exceed one burst
// plus burstCeiling (the most a paint may overdraw the bucket by) plus
// what the grant refills in T.
func TestPacingWindowBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rate := uint64(rng.Intn(990)+10) * 1000 // 10k..1M bps
		burst := rng.Intn(8<<10) + 512
		g := NewGovernor(Config{BurstBytes: burst}, nil)
		g.SetGrant(0, rate)

		type send struct {
			at    time.Duration
			bytes int
		}
		var sends []send
		now := time.Duration(0)
		for step := 0; step < 400; step++ {
			now += time.Duration(rng.Intn(20_000)) * time.Microsecond
			for k := rng.Intn(4); k > 0; k-- {
				n := rng.Intn(200) + 1
				if rng.Intn(20) == 0 {
					n = rng.Intn(burstCeiling) + 1 // a frame larger than any burst
				}
				if g.Admit(now, n) {
					g.Submit(now, Item{Wire: make([]byte, n)})
					sends = append(sends, send{at: now, bytes: n})
				}
			}
		}
		for _, win := range []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
			bound := float64(burst+burstCeiling) + float64(rate)/8*win.Seconds()
			for i := range sends {
				sum := 0
				for j := i; j < len(sends) && sends[j].at-sends[i].at <= win; j++ {
					sum += sends[j].bytes
				}
				if float64(sum) > bound {
					t.Fatalf("trial %d: %d bytes sent in a %v window, bound %.0f (rate %d bps, burst %d)",
						trial, sum, win, bound, rate, burst)
				}
			}
		}
	}
}

func TestMetricsPublish(t *testing.T) {
	r := obs.NewRegistry(obs.DomainWall)
	series := r.Labeled("session", "alice")
	m := NewMetrics(r, series)
	g := NewGovernor(Config{BurstBytes: 1 << 10}, m)
	g.SetGrant(0, 1)
	g.Submit(0, fillItem(1, protocol.Rect{X: 1, Y: 1, W: 4, H: 4}, 1))
	g.Admit(0, burstCeiling+1)
	snap := r.Snapshot()
	if snap.Counters["slim_flow_owed_total"] != 1 {
		t.Fatalf("owed_total = %d, want 1", snap.Counters["slim_flow_owed_total"])
	}
	if snap.Gauges[`slim_flow_grant_bps{session="alice"}`] != 1 {
		t.Fatal("grant gauge missing")
	}
	// Repayment bytes are charged as they are sent; utilization publishes
	// once a window elapses.
	owed := fillItem(3, protocol.Rect{X: 20, W: 4, H: 4}, 3)
	owed.Retransmit = true
	g.Submit(0, owed)
	if got := r.Snapshot().Counters["slim_flow_retransmit_bytes_total"]; got != int64(owed.Bytes()) {
		t.Fatalf("retransmit_bytes_total = %d, want %d", got, owed.Bytes())
	}
	g.Tokens(2 * time.Second)
	if _, ok := r.Snapshot().Gauges[`slim_flow_grant_utilization{session="alice"}`]; !ok {
		t.Fatal("grant utilization gauge missing")
	}
	series.Remove()
	snap = r.Snapshot()
	if _, ok := snap.Gauges[`slim_flow_grant_bps{session="alice"}`]; ok {
		t.Fatal("Remove left per-session gauges behind")
	}
	if _, ok := snap.Counters["slim_flow_owed_total"]; !ok {
		t.Fatal("Remove must keep shared totals")
	}
}

// TestGovernorZeroAlloc pins the governor's allocation count at zero:
// sending before any grant, sending under its grant, and refusing. Nothing it does per command may allocate; the benchmarks in
// bench guard it over time.
func TestGovernorZeroAlloc(t *testing.T) {
	it := fillItem(1, protocol.Rect{W: 8, H: 8}, 1)
	r := obs.NewRegistry(obs.DomainWall)
	send := func(g *Governor, now *time.Duration) func() {
		return func() {
			*now += time.Millisecond
			if g.Admit(*now, it.Bytes()) {
				g.Submit(*now, it)
			}
		}
	}
	var now time.Duration
	if allocs := testing.AllocsPerRun(1000, send(NewGovernor(Config{}, nil), &now)); allocs != 0 {
		t.Fatalf("admit+submit before a grant allocates %.1f per op, want 0", allocs)
	}
	granted := NewGovernor(Config{}, NewMetrics(r, r.Labeled("session", "a")))
	granted.SetGrant(0, 1<<30)
	if allocs := testing.AllocsPerRun(1000, send(granted, &now)); allocs != 0 {
		t.Fatalf("a governed send under its grant allocates %.1f per op, want 0", allocs)
	}
	if sent, _ := granted.PacedBytes(); sent == 0 {
		t.Fatal("the governed session sent nothing under a gigabit grant")
	}
	refusing := NewGovernor(Config{BurstBytes: 1}, NewMetrics(r, r.Labeled("session", "b")))
	refusing.SetGrant(0, 8)
	refusing.Submit(0, it)
	if allocs := testing.AllocsPerRun(1000, func() { refusing.Admit(0, it.Bytes()) }); allocs != 0 {
		t.Fatalf("a governed refusal allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkSubmitGoverned(b *testing.B) {
	g := NewGovernor(Config{BurstBytes: 1 << 16}, nil)
	g.SetGrant(0, 1<<30)
	it := fillItem(1, protocol.Rect{W: 8, H: 8}, 1)
	b.ReportAllocs()
	now := time.Duration(0)
	for i := 0; i < b.N; i++ {
		now += time.Microsecond
		if g.Admit(now, it.Bytes()) {
			g.Submit(now, it)
		}
	}
}

func TestPacedBytesAccounting(t *testing.T) {
	// Sends count as they are charged, before any grant too.
	g := NewGovernor(Config{}, nil)
	it := fillItem(1, protocol.Rect{W: 4, H: 4}, 1)
	size := int64(it.Bytes())
	g.Submit(0, it)
	if total, retrans := g.PacedBytes(); total != size || retrans != 0 {
		t.Fatalf("paced before a grant = (%d, %d), want (%d, 0)", total, retrans, size)
	}
	rt := fillItem(2, protocol.Rect{X: 10, W: 4, H: 4}, 1)
	rt.Retransmit = true
	g.Submit(0, rt)
	if total, retrans := g.PacedBytes(); total != 2*size || retrans != size {
		t.Fatalf("retransmit paced = (%d, %d), want (%d, %d)", total, retrans, 2*size, size)
	}

	// Under a grant: bytes count as they are sent, and come out of the
	// tokens.
	const cmd = 1000
	g = NewGovernor(Config{BurstBytes: cmd}, nil)
	g.SetGrant(0, 8*cmd) // cmd bytes/s: one command per second
	g.Submit(0, Item{Wire: make([]byte, cmd)})
	if total, _ := g.PacedBytes(); total != cmd || g.Tokens(0) != 0 {
		t.Fatalf("paced after a burst's send = %d with %d tokens left, want %d and 0", total, g.Tokens(0), cmd)
	}
	if g.ReadyAt(0, cmd) != time.Second {
		t.Fatalf("the next command may leave at %v, want 1s", g.ReadyAt(0, cmd))
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
	if got := g.DemandBps(0); got != ceiling {
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
	if got := g.DemandBps(time.Second); got != want {
		t.Fatalf("demand after %d bytes/s = %d, want %d (item size %d)", sent, got, want, size)
	}
	if got := g.DemandBps(time.Second); got <= ceiling/8 || got >= ceiling {
		t.Fatalf("test content did not land mid-range: demand %d, ceiling %d", got, ceiling)
	}

	// A busy window claims at most the ceiling: the console could not
	// decode more even if the wire carried it.
	for i := 0; i < 200; i++ {
		it := fillItem(uint32(100+i), protocol.Rect{X: (i % 30) * 10, Y: 40, W: 8, H: 8}, 0)
		g.Submit(time.Second+time.Duration(i)*time.Millisecond, it)
	}
	g.Submit(2200*time.Millisecond, fillItem(999, protocol.Rect{Y: 80, W: 8, H: 8}, 0))
	if got := g.DemandBps(2200 * time.Millisecond); got != ceiling {
		t.Fatalf("busy demand = %d, want capped at ceiling %d", got, ceiling)
	}

	// An idle window drops to the floor, never zero: the session must
	// stay reachable at interactive latency. Asking closes the window; no
	// send is needed.
	if got, floor := g.DemandBps(3300*time.Millisecond), uint64(ceiling/8); got != floor {
		t.Fatalf("idle demand = %d, want floor %d", got, floor)
	}

	// Hotdesk: the measurement says nothing about the new console.
	g.Reset(3400 * time.Millisecond)
	if got := g.DemandBps(3400 * time.Millisecond); got != ceiling {
		t.Fatalf("demand after Reset = %d, want ceiling %d", got, ceiling)
	}
}
