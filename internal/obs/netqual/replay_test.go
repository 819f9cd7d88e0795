package netqual_test

import (
	"testing"
	"time"

	"slim"
	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/netqual"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// TestReplayMatchesLive: a fabric session is estimated live and captured
// at once, on one virtual clock, every seventh display datagram lost for
// the first third of the run; replaying the capture offline reproduces
// the live tracker's estimate for that session — same RTT samples, same
// smoothed values, same loss — because Replay feeds the estimators the
// way the server does.
func TestReplayMatchesLive(t *testing.T) {
	kit := telemetry.New(obs.DomainSim)
	kit.NetQual.SetEnabled(true)
	ring := capture.NewRing(1 << 14)
	ring.SetEnabled(true)
	fabric := slim.NewFabric()
	fabric.SetCapture(ring)
	srv := slim.NewServer(fabric, slim.WithTerminalApp(), slim.WithTelemetry(kit))
	srv.Auth.Register("card-alice", "alice")
	con, err := slim.NewConsole(slim.ConsoleConfig{Width: 320, Height: 240, Obs: kit.Registry})
	if err != nil {
		t.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)

	now := time.Duration(0)
	tick := func(d time.Duration) {
		now += d
		kit.Clock.Set(now)
		fabric.SetClock(now)
		if err := fabric.Pump(); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		t.Fatal(err)
	}
	tick(time.Second)
	fabric.SetLoss(7)
	for i := 0; i < 120; i++ {
		if i == 40 {
			fabric.SetLoss(0)
		}
		ch := uint16('a' + i%26)
		if err := fabric.Desk("desk-1").SendKey(ch, true); err != nil {
			t.Fatal(err)
		}
		tick(time.Duration(7+i%5) * time.Millisecond)
		if err := fabric.Desk("desk-1").SendKey(ch, false); err != nil {
			t.Fatal(err)
		}
		tick(35 * time.Millisecond)
	}
	tick(2 * time.Second)

	live := kit.NetQual.Lookup(srv.SessionByUser("alice").ID)
	if live.Samples() < 40 || live.LossLongAt(now) == 0 {
		t.Fatalf("live drive too quiet to compare: %d samples, loss %.3f", live.Samples(), live.LossLongAt(now))
	}

	recs := ring.Drain()
	// An audio datagram is not a display command: the server does not feed
	// it to the estimator, and neither may the replay (the CLI's loop did).
	recs = append(recs, capture.Record{T: now, Dir: capture.DirDown, Flow: -1, Size: 60, Console: "desk-1",
		Wire: protocol.Encode(nil, 1<<30, &protocol.Audio{SampleRate: 8000, Channels: 1, Samples: make([]byte, 16)})})
	rep := netqual.Replay(recs)
	if len(rep.Paths) != 1 || rep.Paths[0].Console != "desk-1" || rep.Undecodable != 0 {
		t.Fatalf("replay = %d paths, %d undecodable; want desk-1 alone", len(rep.Paths), rep.Undecodable)
	}
	got := rep.Paths[0]
	if got.Samples() != live.Samples() || got.SRTT() != live.SRTT() ||
		got.RTTVar() != live.RTTVar() || got.MinRTT() != live.MinRTT() {
		t.Errorf("replayed RTT: %d samples srtt %v rttvar %v min %v; live: %d samples srtt %v rttvar %v min %v",
			got.Samples(), got.SRTT(), got.RTTVar(), got.MinRTT(),
			live.Samples(), live.SRTT(), live.RTTVar(), live.MinRTT())
	}
	if got.LossShortAt(now) != live.LossShortAt(now) || got.LossLongAt(now) != live.LossLongAt(now) {
		t.Errorf("replayed loss %.4f/%.4f, live %.4f/%.4f",
			got.LossShortAt(now), got.LossLongAt(now), live.LossShortAt(now), live.LossLongAt(now))
	}
	sends, _ := got.Sent()
	if liveSends, _ := live.Sent(); sends != liveSends {
		t.Errorf("replay armed the send ring %d times, the server %d: only display commands count", sends, liveSends)
	}
	if got.Jitter() != live.Jitter() {
		t.Errorf("replayed jitter %v, live %v", got.Jitter(), live.Jitter())
	}
}
