package slim

import (
	"crypto/sha256"
	"testing"
	"time"
)

// TestSimulationIsAFunctionOfItsSeed runs simulated worlds twice each in one
// process and requires the second run to replay the first: the same pixels
// on every console, the same last sequence number and drop counter in
// every console's STATUS, the same datagrams lost on the fabric, and the
// same digest of every datagram the fabric carried. A figure, a failing
// fault seed or a blame score is evidence only if its run replays, so
// nothing on the simulated path may depend on map iteration order,
// goroutine scheduling or a wall-clock reading (TestClockReadsAreListed
// lists the last). The worlds are TestFaultScheduleConverges' seeds and
// the fleet_fabric benchmark's 32 consoles on a 4-shard broker. The
// overload run replays in TestOverloadGovernorDegradesGracefully, and
// Figure 12 in internal/experiments' TestFigure12IsAFunctionOfItsSeed.
func TestSimulationIsAFunctionOfItsSeed(t *testing.T) {
	t.Run("fault schedules", func(t *testing.T) {
		for seed := int64(1); seed <= faultSeeds; seed++ {
			var runs [2][2]worldOutcome
			for i := range runs {
				f, twin := runFaultSchedule(t, seed)
				runs[i] = [2]worldOutcome{f.outcome(t), twin.outcome(t)}
			}
			if runs[0] != runs[1] {
				t.Errorf("seed %d does not replay:\n first  %+v\n second %+v", seed, runs[0], runs[1])
			}
		}
	})
	t.Run("fleet", func(t *testing.T) {
		var runs [2][]worldOutcome
		for i := range runs {
			runs[i] = fleetOutcome(t)
		}
		for i := range runs[0] {
			if runs[0][i] != runs[1][i] {
				t.Errorf("console %d does not replay:\n first  %+v\n second %+v", i, runs[0][i], runs[1][i])
			}
		}
	})
}

// fleetOutcome builds BenchmarkFleetEcho's rig, captures 35 more echoes per
// console on it, and reports each console's outcome, the capture's digest
// on the first.
func fleetOutcome(t *testing.T) []worldOutcome {
	const consoles = 32
	r := newEchoRig(t, consoles, 4, 10*time.Microsecond, 20*time.Millisecond)
	r.wire.SetEnabled(true)
	digest := sha256.New()
	for range 35 * consoles {
		r.echo()
		if _, err := r.wire.SpoolTo(digest); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.wire.Drops(); n != 0 {
		t.Fatalf("the capture ring shed %d records", n)
	}
	r.screensAgree()
	_, lost := r.fabric.LossStats()
	out := make([]worldOutcome, consoles)
	for i, desk := range r.desks {
		con, err := r.fabric.Console(desk)
		if err != nil {
			t.Fatal(err)
		}
		st := con.Status()
		out[i] = worldOutcome{screen: screenDigest(con.Framebuffer()), lastSeq: st.LastSeq, dropped: st.Dropped, lost: lost}
	}
	out[0].wire = string(digest.Sum(nil))
	return out
}
