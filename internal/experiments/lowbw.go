package experiments

import (
	"fmt"
	"slices"
	"time"

	"slim/internal/core"
	"slim/internal/netsim"
	"slim/internal/protocol"
	"slim/internal/stats"
	"slim/internal/workload"
)

// LowBWResult compares plain per-command datagrams against batched,
// header-compressed framing (§5.4's proposed optimization) on a
// low-bandwidth link.
type LowBWResult struct {
	App         workload.App
	Bps         float64
	PlainBytes  int64 // wire bytes including per-packet frame overhead
	BatchBytes  int64
	PlainP90    time.Duration // P90 added packet delay vs 100 Mbps
	BatchP90    time.Duration
	BytesSaved  float64 // fraction
	PlainPkts   int
	BatchedPkts int
}

// LowBandwidth regenerates one user's session, frames it both ways, and
// replays both packet streams over the constrained link.
func LowBandwidth(app workload.App, bps float64, seed uint64, dur time.Duration) (LowBWResult, error) {
	res := LowBWResult{App: app, Bps: bps}
	sess := workload.NewSession(app, 0, seed)
	sess.CaptureOps = true
	sess.Run(dur)

	// Re-encode the identical op stream, collecting datagrams with their
	// event timestamps.
	enc := core.NewEncoder(workload.ScreenW, workload.ScreenH)
	line := &netsim.Link{Bps: netsim.Rate100Mbps}
	var plain []netsim.Packet
	var batched []netsim.Packet
	var burst [][]byte        // the current event's plain wires, copied...
	var ready []time.Duration // ...and when each was serialized
	var frame []byte
	var lastEvent time.Duration

	// An event's commands leave together, as one burst through the packer
	// the UDP endpoint runs: the previous update is never held hostage. A
	// datagram closed by a command that did not fit leaves when that
	// command was ready, the burst's last one at the event's own instant.
	flushBurst := func() {
		for i := 0; i < len(burst); {
			var n int
			frame, n = protocol.PackFrame(frame, burst[i:], core.MaxDatagram)
			i += n
			t := lastEvent
			if i < len(burst) {
				t = ready[i]
			}
			batched = append(batched, netsim.Packet{T: t, Size: len(frame), Flow: 1})
		}
		burst, ready = burst[:0], ready[:0]
	}
	for i, op := range sess.Ops {
		t := sess.OpTimes[i]
		if t != lastEvent {
			flushBurst()
			lastEvent = t
		}
		dgs, err := enc.Encode(op)
		if err != nil {
			return res, err
		}
		pt := t
		for _, d := range dgs {
			pt += line.SerializeTime(len(d.Wire))
			plain = append(plain, netsim.Packet{T: pt, Size: len(d.Wire), Flow: 0})
			// A wire lives only until the next Encode; the burst outlives it.
			burst = append(burst, slices.Clone(d.Wire))
			ready = append(ready, pt)
		}
	}
	flushBurst()

	for _, p := range plain {
		res.PlainBytes += int64(p.Size + netsim.FrameOverhead)
	}
	for _, p := range batched {
		res.BatchBytes += int64(p.Size + netsim.FrameOverhead)
	}
	res.PlainPkts, res.BatchedPkts = len(plain), len(batched)
	if res.PlainBytes > 0 {
		res.BytesSaved = 1 - float64(res.BatchBytes)/float64(res.PlainBytes)
	}

	ref := &netsim.Link{Bps: netsim.Rate100Mbps}
	slow := &netsim.Link{Bps: bps}
	res.PlainP90 = p90(netsim.AddedDelays(plain, ref, slow))
	res.BatchP90 = p90(netsim.AddedDelays(batched, ref, slow))
	return res, nil
}

func p90(delays []time.Duration) time.Duration {
	c := stats.NewCDF(len(delays))
	for _, d := range delays {
		c.Add(d.Seconds())
	}
	if c.N() == 0 {
		return 0
	}
	return time.Duration(c.Percentile(0.9) * float64(time.Second))
}

// RenderLowBandwidth prints the comparison.
func RenderLowBandwidth(rows []LowBWResult) string {
	t := [][]string{{"application", "link", "plain pkts", "batched pkts", "bytes saved", "plain P90", "batched P90"}}
	for _, r := range rows {
		t = append(t, []string{
			string(r.App),
			fmt.Sprintf("%.0f Kbps", r.Bps/1e3),
			fmt.Sprintf("%d", r.PlainPkts),
			fmt.Sprintf("%d", r.BatchedPkts),
			fmt.Sprintf("%.1f%%", 100*r.BytesSaved),
			r.PlainP90.Round(time.Millisecond).String(),
			r.BatchP90.Round(time.Millisecond).String(),
		})
	}
	return "Section 5.4 extension: command batching + header compression on slow links\n" + table(t)
}
