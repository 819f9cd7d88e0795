package netqual

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

// Replayed is a wire capture run back through the path estimators: the
// numbers a live server exports as slim_netqual_*, recovered from a spool
// after the fact.
type Replayed struct {
	Records     int
	SizeOnly    int // payload-less records (netsim links spool sizes only)
	Undecodable int // datagrams no message decoded from
	// Span is the newest record time, which the windowed reads
	// (LossShortAt, LossLongAt, GoodputAt) are taken as of.
	Span  time.Duration
	Paths []ReplayedPath // one estimator per console, sorted by console
}

// ReplayedPath is one console's replayed path estimate.
type ReplayedPath struct {
	Console string
	*PathSession
}

// Replay feeds capture records through a fresh tracker exactly as a live
// server feeds its own: down-direction display datagrams arm the send ring
// (MsgType.IsDisplay, the server's own definition), a BandwidthRequest
// opens a grant probe, and up-direction STATUS, NACK and grant traffic
// yields the RTT, jitter and loss samples. Offline the governor's
// retransmit flag is not visible; a sequence at or below the console's
// high-water mark is taken for one.
func Replay(recs []capture.Record) *Replayed {
	// A replay is virtual time whichever domain the spool came from: the
	// tracker stamps from a clock set to each record's timestamp.
	clk := obs.NewClock(obs.DomainSim)
	tr := New(clk)
	tr.SetEnabled(true)

	rep := &Replayed{Records: len(recs)}
	type replaying struct {
		nq     *PathSession
		maxSeq uint32 // high-water display seq, for retransmit detection
	}
	consoles := map[string]*replaying{}
	lookup := func(console string) *replaying {
		rs := consoles[console]
		if rs == nil {
			rs = &replaying{nq: tr.Session(uint32(len(consoles)+1), console)}
			consoles[console] = rs
		}
		return rs
	}
	for _, rec := range recs {
		rep.Span = max(rep.Span, rec.T)
		if len(rec.Wire) == 0 {
			rep.SizeOnly++
			continue
		}
		clk.Set(rec.T)
		// A display command is charged what the live server charged it:
		// its plain-framed size, inside a §5.4 frame or out of one.
		var rs *replaying
		rec.Walk(func(seq uint32, m protocol.Message, size int) {
			if rs == nil {
				rs = lookup(cmp.Or(rec.Console, "?"))
			}
			switch rec.Dir {
			case capture.DirDown:
				if m.Type().IsDisplay() {
					retrans := rs.maxSeq != 0 && seq <= rs.maxSeq
					rs.maxSeq = max(rs.maxSeq, seq)
					rs.nq.OnSend(seq, size, retrans)
				} else if m.Type() == protocol.TypeBandwidthRequest {
					rs.nq.OnProbe()
				}
			case capture.DirUp:
				switch v := m.(type) {
				case *protocol.Status:
					rs.nq.OnStatus(v.LastSeq, v.Dropped)
				case *protocol.Nack:
					rs.nq.OnNack(v.From, v.To)
				case *protocol.BandwidthGrant:
					rs.nq.OnGrant()
				}
			}
		})
		if rs == nil {
			rep.Undecodable++
		}
	}
	for name, rs := range consoles {
		rep.Paths = append(rep.Paths, ReplayedPath{Console: name, PathSession: rs.nq})
	}
	sort.Slice(rep.Paths, func(i, j int) bool { return rep.Paths[i].Console < rep.Paths[j].Console })
	return rep
}

// WriteTable prints the per-console path table.
func (rep *Replayed) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "path replay: %d records, %d consoles, span %s\n",
		rep.Records, len(rep.Paths), rep.Span.Round(time.Millisecond))
	if rep.SizeOnly > 0 {
		fmt.Fprintf(w, "  %d size-only records skipped (no payload to decode)\n", rep.SizeOnly)
	}
	if rep.Undecodable > 0 {
		fmt.Fprintf(w, "  %d undecodable records skipped\n", rep.Undecodable)
	}
	fmt.Fprintf(w, "%-16s %8s %9s %9s %9s %7s %7s %10s %7s %5s\n",
		"console", "srtt", "rttvar", "minrtt", "jitter",
		"loss5s", "loss1m", "goodbits/s", "sends", "acks")
	for _, p := range rep.Paths {
		sends, _ := p.Sent()
		fmt.Fprintf(w, "%-16s %8s %9s %9s %9s %6.2f%% %6.2f%% %10s %7d %5d\n",
			p.Console,
			pathDur(p.SRTT()), pathDur(p.RTTVar()), pathDur(p.MinRTT()), pathDur(p.Jitter()),
			p.LossShortAt(rep.Span)*100, p.LossLongAt(rep.Span)*100,
			capture.FormatBits(p.GoodputAt(rep.Span)), sends, p.Samples())
	}
}

// pathDur renders an estimator duration, dashing out the "no samples yet"
// zero so empty paths read as unknown rather than instantaneous.
func pathDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(10 * time.Microsecond).String()
}
