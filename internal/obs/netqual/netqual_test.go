package netqual

import (
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
)

// simTracker returns an armed tracker and the virtual clock its observe
// calls stamp from; tests set the clock before each call.
func simTracker() (*Tracker, *obs.Clock) {
	clk := obs.NewClock(obs.DomainSim)
	t := New(clk)
	t.SetEnabled(true)
	return t, clk
}

const msec = time.Millisecond

// TestRTTEWMA pins the RFC 6298 fold: first sample seeds SRTT and
// RTTVAR=sample/2; later samples move SRTT by 1/8 of the error.
func TestRTTEWMA(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")

	clk.Set(0)

	s.OnSend(1, 100, false)
	clk.Set(40 * msec)
	s.OnStatus(1, 0)
	if got := s.SRTT(); got != 40*msec {
		t.Fatalf("first sample SRTT = %v, want 40ms", got)
	}
	if got := s.RTTVar(); got != 20*msec {
		t.Fatalf("first sample RTTVAR = %v, want 20ms", got)
	}
	if got := s.MinRTT(); got != 40*msec {
		t.Fatalf("MinRTT = %v, want 40ms", got)
	}

	// Second sample of 120ms: SRTT += (120-40)/8 = 50ms,
	// RTTVAR += (|120-40| - 20)/4 = 35ms.
	clk.Set(100 * msec)
	s.OnSend(2, 100, false)
	clk.Set(220 * msec)
	s.OnStatus(2, 0)
	if got := s.SRTT(); got != 50*msec {
		t.Errorf("SRTT after second sample = %v, want 50ms", got)
	}
	if got := s.RTTVar(); got != 35*msec {
		t.Errorf("RTTVAR after second sample = %v, want 35ms", got)
	}
	if got := s.Samples(); got != 2 {
		t.Errorf("samples = %d, want 2", got)
	}
}

// TestKarnExcludesRetransmits: a retransmitted sequence must never yield
// an RTT sample — the ack is ambiguous between the transmissions.
func TestKarnExcludesRetransmits(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")

	clk.Set(0)

	s.OnSend(1, 100, false)
	clk.Set(10 * msec)
	s.OnSend(1, 100, true) // retransmit of seq 1
	clk.Set(50 * msec)
	s.OnStatus(1, 0)
	if got := s.Samples(); got != 0 {
		t.Fatalf("retransmitted seq produced %d RTT samples, want 0", got)
	}
	// The next clean sequence samples normally.
	clk.Set(60 * msec)
	s.OnSend(2, 100, false)
	clk.Set(100 * msec)
	s.OnStatus(2, 0)
	if got, want := s.SRTT(), 40*msec; got != want {
		t.Errorf("SRTT = %v, want %v", got, want)
	}
}

// TestGrantProbeRTT: the bandwidth-grant round trip is an RTT source
// before any STATUS arrives.
func TestGrantProbeRTT(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")
	clk.Set(10 * msec)
	s.OnProbe()
	clk.Set(35 * msec)
	s.OnGrant()
	if got := s.SRTT(); got != 25*msec {
		t.Fatalf("grant-probe SRTT = %v, want 25ms", got)
	}
	// A grant with no open probe must not sample.
	clk.Set(90 * msec)
	s.OnGrant()
	if got := s.Samples(); got != 1 {
		t.Errorf("unmatched grant sampled: %d samples, want 1", got)
	}
}

// TestReorderedAcks: a stale STATUS (LastSeq below the watermark) must
// not walk the ack window backward or produce a negative-advance sample.
func TestReorderedAcks(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")
	for i := uint32(1); i <= 5; i++ {
		clk.Set(time.Duration(i) * msec)
		s.OnSend(i, 100, false)
	}
	clk.Set(20 * msec)
	s.OnStatus(5, 0)
	acked, _, bytes := s.short.Totals(int64(20 * msec))
	if acked != 5 || bytes != 500 {
		t.Fatalf("acked=%d bytes=%d, want 5/500", acked, bytes)
	}
	samples := s.Samples()

	// Reordered: an older STATUS for seq 3 arrives late.
	clk.Set(25 * msec)
	s.OnStatus(3, 0)
	acked2, _, bytes2 := s.short.Totals(int64(25 * msec))
	if acked2 != acked || bytes2 != bytes {
		t.Errorf("stale status re-acked: %d/%d, want %d/%d", acked2, bytes2, acked, bytes)
	}
	if s.Samples() != samples {
		t.Errorf("stale status produced an RTT sample")
	}
}

// TestDuplicateNacks: the NACK watermark counts each lost sequence once,
// no matter how many times the console re-NACKs the range.
func TestDuplicateNacks(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")
	now := 10 * msec

	clk.Set(now)

	s.OnNack(3, 5)
	if _, lost, _ := s.short.Totals(int64(now)); lost != 3 {
		t.Fatalf("lost = %d, want 3", lost)
	}
	clk.Set(now + msec)
	s.OnNack(3, 5) // exact duplicate
	clk.Set(now + 2*msec)
	s.OnNack(4, 5)
	if _, lost, _ := s.short.Totals(int64(now + 2*msec)); lost != 3 {
		t.Errorf("duplicate NACKs double-counted: lost = %d, want 3", lost)
	}
	// A partially-overlapping range counts only the fresh tail.
	clk.Set(now + 3*msec)
	s.OnNack(5, 7)
	if _, lost, _ := s.short.Totals(int64(now + 3*msec)); lost != 5 {
		t.Errorf("overlapping NACK: lost = %d, want 5", lost)
	}
}

// TestLossRate drives a 10%-loss pattern and checks the windowed rate.
func TestLossRate(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")
	var now time.Duration
	var highest uint32
	for i := uint32(1); i <= 100; i++ {
		now = time.Duration(i) * msec
		clk.Set(now)
		s.OnSend(i, 100, false)
		if i%10 == 0 {
			clk.Set(now)
			s.OnNack(i, i) // every 10th is lost
		} else {
			highest = i
		}
	}
	clk.Set(now)
	s.OnStatus(100, 0) // console saw everything up to 100
	_ = highest
	got := s.LossShortAt(now)
	if got < 0.09 || got > 0.11 {
		t.Errorf("loss = %.3f, want ~0.10", got)
	}
}

// TestMigrationRebase: a hotdesk cutover clears in-flight sample state
// but must not disturb the smoothed estimates or spike the loss windows.
func TestMigrationRebase(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")
	clk.Set(0)
	s.OnSend(1, 100, false)
	clk.Set(40 * msec)
	s.OnStatus(1, 0)
	clk.Set(50 * msec)
	s.OnSend(2, 100, false) // in flight across the cutover
	clk.Set(55 * msec)
	s.OnProbe() // grant probe open across the cutover

	srtt, jit := s.SRTT(), s.Jitter()
	ackedBefore, lostBefore, _ := s.short.Totals(int64(60 * msec))

	// The destination shard resolves the same session and rebases.
	if got := tr.Session(1, "alice"); got != s {
		t.Fatalf("migrated session did not resolve to the same estimator")
	}
	clk.Set(60 * msec)
	s.Rebase()

	if s.SRTT() != srtt || s.Jitter() != jit {
		t.Errorf("rebase disturbed smoothed estimates: srtt %v->%v jitter %v->%v",
			srtt, s.SRTT(), jit, s.Jitter())
	}
	acked, lost, _ := s.short.Totals(int64(60 * msec))
	if acked != ackedBefore || lost != lostBefore {
		t.Errorf("rebase disturbed loss windows: acked %d->%d lost %d->%d",
			ackedBefore, acked, lostBefore, lost)
	}

	// The pre-cutover in-flight send and probe must not sample: the
	// replayed seq 2 is re-sent by the destination, and only that send
	// time counts.
	samples := s.Samples()
	clk.Set(70 * msec)
	s.OnGrant() // grant raced the cutover: probe was cleared
	if s.Samples() != samples {
		t.Errorf("stale grant probe sampled across the cutover")
	}
	clk.Set(80 * msec)
	s.OnSend(2, 100, false)
	clk.Set(120 * msec)
	s.OnStatus(2, 0)
	if got := s.Samples(); got != samples+1 {
		t.Fatalf("post-cutover ack sampled %d times, want once", got-samples)
	}
	// Sample must be measured from the post-cutover send (40ms), folding
	// SRTT toward it, not from the 50ms pre-cutover send time (70ms).
	want := srtt + (40*msec-srtt)/8
	if got := s.SRTT(); got != want {
		t.Errorf("post-cutover SRTT = %v, want %v", got, want)
	}
	// And no loss spike: the cutover itself charged nothing.
	if _, lost, _ := s.short.Totals(int64(120 * msec)); lost != lostBefore {
		t.Errorf("cutover charged %d lost packets", lost-lostBefore)
	}
}

// TestIdleDecay: an idle session's windows expire by epoch arithmetic —
// rates read later are zero, not frozen at the last burst.
func TestIdleDecay(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")
	clk.Set(0)
	s.OnSend(1, 100, false)
	clk.Set(msec)
	s.OnStatus(1, 0) // clean ack: seeds SRTT
	clk.Set(msec)
	s.OnSend(2, 100, false)
	clk.Set(2 * msec)
	s.OnNack(2, 2)
	clk.Set(2 * msec)
	s.OnStatus(2, 0)
	if got := s.LossShortAt(2 * msec); got == 0 {
		t.Fatalf("expected nonzero loss right after the burst")
	}
	// 10 minutes of silence: both windows must read empty.
	later := 10 * time.Minute
	if got := s.LossShortAt(later); got != 0 {
		t.Errorf("short window froze: loss = %.3f after idle", got)
	}
	if got := s.LossLongAt(later); got != 0 {
		t.Errorf("long window froze: loss = %.3f after idle", got)
	}
	if got := s.GoodputAt(later); got != 0 {
		t.Errorf("goodput froze: %.0f bps after idle", got)
	}
	// The smoothed SRTT survives idleness — it decays only on samples.
	if s.SRTT() == 0 {
		t.Errorf("SRTT lost during idle")
	}
}

// TestConsoleDrops: the console's cumulative drop counter feeds loss once
// per increment.
func TestConsoleDrops(t *testing.T) {
	tr, clk := simTracker()
	s := tr.Session(1, "alice")
	clk.Set(msec)
	s.OnStatus(0, 2)
	clk.Set(2 * msec)
	s.OnStatus(0, 2) // unchanged: no new loss
	clk.Set(3 * msec)
	s.OnStatus(0, 5)
	if _, lost, _ := s.short.Totals(int64(3 * msec)); lost != 5 {
		t.Errorf("lost = %d, want 5", lost)
	}
}

// TestDisabledObservesNothing: a disarmed tracker records no state.
func TestDisabledObservesNothing(t *testing.T) {
	clk := obs.NewClock(obs.DomainSim)
	tr := New(clk)
	s := tr.Session(1, "alice")
	if s.Armed() {
		t.Fatal("disabled tracker reports armed")
	}
	clk.Set(0)
	s.OnSend(1, 100, false)
	clk.Set(40 * msec)
	s.OnStatus(1, 0)
	clk.Set(41 * msec)
	s.OnNack(2, 2)
	clk.Set(42 * msec)
	s.OnProbe()
	clk.Set(50 * msec)
	s.OnGrant()
	if s.SRTT() != 0 || s.Samples() != 0 || s.sentPkts.Load() != 0 {
		t.Errorf("disabled session recorded state: %+v", s.statusAt(50*msec))
	}
	var nilSess *PathSession
	if nilSess.Armed() {
		t.Error("nil session reports armed")
	}
	nilSess.OnStatus(0, 0) // must not panic
	nilSess.Rebase()
}

// TestEvictionRemovesLabeledSeries: Remove drops the per-session gauges
// from the registry — the cardinality-leak contract.
func TestEvictionRemovesLabeledSeries(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainSim)
	clk := obs.NewClock(obs.DomainSim)
	tr := New(clk).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(7, "bob")
	clk.Set(0)
	s.OnSend(1, 100, false)
	clk.Set(40 * msec)
	s.OnStatus(1, 0)

	snap := reg.Snapshot()
	var labeled []string
	for name := range snap.Gauges {
		if strings.Contains(name, `session="bob"`) {
			labeled = append(labeled, name)
		}
	}
	if len(labeled) != 4 {
		t.Fatalf("want 4 labeled gauges, got %v", labeled)
	}

	tr.Remove(7)
	snap = reg.Snapshot()
	for name := range snap.Gauges {
		if strings.Contains(name, `session="bob"`) {
			t.Errorf("leaked gauge after Remove: %s", name)
		}
	}
	if ids := tr.SessionIDs(); len(ids) != 0 {
		t.Errorf("session IDs after Remove: %v", ids)
	}
	tr.Remove(7) // idempotent
}

// TestStatusReport sanity-checks the /debug/netqual JSON surface.
func TestStatusReport(t *testing.T) {
	reg := obs.NewRegistry(obs.DomainSim)
	clk := obs.NewClock(obs.DomainSim)
	tr := New(clk).Instrument(reg)
	tr.SetEnabled(true)
	s := tr.Session(2, "carol")
	clk.Set(0)
	s.OnSend(1, 100, false)
	clk.Set(30 * msec)
	s.OnStatus(1, 0)

	st := tr.Status()
	if !st.Enabled || len(st.Sessions) != 1 {
		t.Fatalf("status = %+v", st)
	}
	ss := st.Sessions[0]
	if ss.ID != 2 || ss.User != "carol" || ss.SRTTMs != 30 || ss.Samples != 1 {
		t.Errorf("session status = %+v", ss)
	}
	var sb strings.Builder
	if err := obs.WriteJSON(&sb, tr.Status()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"srtt_ms"`, `"loss_short"`, `"goodput_bps"`, `"carol"`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}
