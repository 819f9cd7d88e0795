package slo

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"slim/internal/obs"
)

const ms = time.Millisecond

// TestGateMatchesEagerEvaluation: a tracker that evaluates its windows only
// while a breach can be in them publishes, at every observe, what
// evaluating at every observe publishes. A seeded stream of latencies —
// clean stretches, breach bursts, gaps longer than the longest window and
// instants that step back — is fed to a tracker and, alongside, to
// reference windows evaluated eagerly; after each observe the fleet burn
// gauges, the fleet state gauge and the observing session's state gauge
// must read the reference's values, and the subscriber must have seen the
// reference's transitions. Some configurations have Short > Mid or a Long
// that is not the longest window. The gate must also have closed: a gate
// that never closes passes the rest trivially.
func TestGateMatchesEagerEvaluation(t *testing.T) {
	configs := []Config{
		cfg(),
		{Target: 100 * ms, Budget: 0.10, Short: 8 * time.Second, Mid: 2 * time.Second, Long: 5 * time.Second},
		{Target: 100 * ms, Budget: 0.02, Short: 300 * ms, Mid: 3 * time.Second, Long: time.Second},
	}
	for ci, c := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("config%d/seed%d", ci, seed), func(t *testing.T) {
				checkGateAgainstEager(t, c, seed)
			})
		}
	}
}

func checkGateAgainstEager(t *testing.T, c Config, seed int64) {
	reg := obs.NewRegistry(obs.DomainSim)
	tr := New(obs.NewClock(obs.DomainSim), c).Instrument(reg)
	var got, want []string
	defer tr.Subscribe(func(from, to State) { got = append(got, from.String()+">"+to.String()) })()

	const nSess = 3
	var refFleet windows
	var refSess [nSess]windows
	refFleet.init(tr.cfg)
	sess := make([]*SessionSLO, nSess)
	for i := range sess {
		refSess[i].init(tr.cfg)
		sess[i] = tr.Session(uint32(i+1), fmt.Sprintf("user%d", i))
	}
	var burnGauge [numWindows]*obs.Gauge
	for w := range burnGauge {
		burnGauge[w] = reg.Gauge(`slim_slo_burn_milli{window="` + windowRoles[w] + `"}`)
	}
	stateGauge := reg.Gauge("slim_slo_state")
	var sessGauge [nSess]*obs.Gauge
	for k := range sessGauge {
		sessGauge[k] = reg.Gauge(fmt.Sprintf(`slim_slo_state{session="user%d"}`, k))
	}
	longest := max(c.Short, c.Mid, c.Long)
	budget := tr.Budget()
	refState := StateOK

	rng := rand.New(rand.NewSource(seed))
	now := time.Second
	breachy := false
	closed := 0
	for i := 0; i < 4000; i++ {
		switch r := rng.Intn(1000); {
		case r < 3:
			now += longest + time.Duration(rng.Int63n(int64(longest))) // a silence
		case r < 50:
			// Out of order, at times far enough back to land before the
			// expiry of a breach the gate has closed on (gate.published).
			now -= time.Duration(rng.Int63n(int64(longest / 4)))
		default:
			now += time.Duration(rng.Int63n(int64(40 * ms)))
		}
		now = max(now, 0)
		if breachy {
			breachy = rng.Intn(10) != 0 // a burst lasts ten observes or so
		} else {
			breachy = rng.Intn(300) == 0
		}
		lat := 10 * ms
		if (breachy && rng.Intn(2) == 0) || rng.Intn(2000) == 0 {
			lat = 500 * ms
		}
		k := rng.Intn(nSess)
		sess[k].ObserveAt(now, lat)

		ns := int64(now)
		refFleet.observe(ns, lat > c.Target)
		refSess[k].observe(ns, lat > c.Target)
		burns, _ := refFleet.eval(ns, budget)
		sburns, _ := refSess[k].eval(ns, budget)
		if st := stateOf(burns); st != refState {
			want = append(want, refState.String()+">"+st.String())
			refState = st
		}

		for w := range burns {
			if g, e := burnGauge[w].Value(), int64(burns[w]*1000); g != e {
				t.Fatalf("observe %d at %v: %s burn %d milli, eager %d", i, now, windowRoles[w], g, e)
			}
		}
		if g, e := stateGauge.Value(), int64(stateOf(burns)); g != e {
			t.Fatalf("observe %d at %v: fleet state %d, eager %d", i, now, g, e)
		}
		if g, e := sessGauge[k].Value(), int64(stateOf(sburns)); g != e {
			t.Fatalf("observe %d at %v: user%d state %d, eager %d", i, now, k, g, e)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("observe %d at %v: transitions %v, eager %v", i, now, got, want)
		}
		if tr.fleet.gate.until.Load() < 0 {
			closed++
		}
	}
	if closed == 0 || len(want) == 0 {
		t.Fatalf("the stream never closed the fleet gate (%d observes closed) or never changed state (%v)", closed, want)
	}
}

// TestBreachRacingTheCloseIsKept races observers that find the last breach
// expired — one of them closes the gate — against an observer whose new
// breach makes the fleet DEGRADED, at the same instant. However they
// interleave, the gate must stay open for the new breach: the next observe
// evaluates and publishes DEGRADED. A gate closed with plain stores loses
// the breach in some interleavings and leaves the gauges at OK.
func TestBreachRacingTheCloseIsKept(t *testing.T) {
	const racers, rounds = 6, 300
	for round := 0; round < rounds; round++ {
		reg := obs.NewRegistry(obs.DomainSim)
		tr := New(obs.NewClock(obs.DomainSim), cfg()).Instrument(reg)
		s := tr.Session(1, "alice")
		// A breach at 0 opens the gate until it leaves the 16 s long
		// window. Clean traffic at 13 s fills the mid window but not the
		// short one, and leaves the fleet OK.
		s.ObserveAt(0, 500*time.Millisecond)
		for i := 0; i < 100; i++ {
			s.ObserveAt(13*time.Second, 10*time.Millisecond)
		}
		if st := tr.State(); st != StateOK {
			t.Fatalf("before the race the fleet is %v, want OK", st)
		}
		at := 16 * time.Second // the first breach's expiry
		// Rotate the slots the race lands in beforehand: a window's own
		// rotation may lose an add that races it (obs.Window.Add), which
		// is not what this test is about.
		for i := range tr.fleet.win {
			tr.fleet.win[i].Add(int64(at), 0, 0, 0)
			s.win.win[i].Add(int64(at), 0, 0, 0)
		}
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i <= racers; i++ {
			lat := 10 * time.Millisecond
			if i == racers {
				lat = 500 * time.Millisecond // short 1/8 → burn 1.25, mid 1/108
			}
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				s.ObserveAt(at, lat)
			}()
		}
		start.Done()
		done.Wait()
		s.ObserveAt(at, 10*time.Millisecond)
		snap := reg.Snapshot()
		if g := snap.Gauges["slim_slo_state"]; g != int64(StateDegraded) {
			t.Fatalf("round %d: fleet state gauge %d after the race, want DEGRADED (%d); windows %+v",
				round, g, StateDegraded, tr.FleetWindows())
		}
		if g := snap.Gauges[`slim_slo_state{session="alice"}`]; g != int64(StateDegraded) {
			t.Fatalf("round %d: session state gauge %d after the race, want DEGRADED", round, g)
		}
	}
}
