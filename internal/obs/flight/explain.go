package flight

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Reattribute re-walks a dump's events instead of trusting its stamped
// verdict — for dumps written before attribution existed, or after the
// attribution logic changed. The chain comes from the stamped verdict (or
// the BREACH marker, or the last INPUT in the window), the as-of time from
// the newest event. Host stall windows recorded in the dump re-enter the
// verdict, so HOST attribution survives offline replay.
func Reattribute(d *Dump) Verdict {
	var chain, lastInput uint64
	if d.Verdict != nil {
		chain = d.Verdict.Chain
	}
	var asOf time.Duration
	for _, ev := range d.Events {
		if ev.T > asOf {
			asOf = ev.T
		}
		switch ev.Kind {
		case EvInput:
			lastInput = ev.Cause
		case EvBreach:
			if chain == 0 && ev.Cause != 0 {
				chain = ev.Cause
			}
		}
	}
	if chain == 0 {
		chain = lastInput
	}
	return Attribute(d.Events, chain, asOf, d.HostWindows)
}

// WriteSummary prints what one dump holds: the breach, a per-kind event
// census, and the last complete causal chain — input through paint — seq
// by seq.
func (d *Dump) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "session %d (%s clock): input-to-paint %v breached threshold %v\n",
		d.Session, d.Domain,
		time.Duration(d.LatencyNs).Round(time.Microsecond),
		time.Duration(d.ThresholdNs))
	fmt.Fprintf(w, "captured %s, %d events in the trailing %v\n",
		d.CapturedAt.Format(time.RFC3339), len(d.Events),
		time.Duration(d.WindowNs))

	kinds := make(map[Kind]int)
	chains := make(map[uint64]bool)
	var last uint64
	for _, ev := range d.Events {
		kinds[ev.Kind]++
		if ev.Cause != 0 {
			chains[ev.Cause] = true
		}
		if ev.Kind == EvInput {
			last = ev.Cause
		}
	}
	fmt.Fprintf(w, "event census (%d causal chains):\n", len(chains))
	for k := EvInput; int(k) < len(kindNames); k++ {
		if kinds[k] > 0 {
			fmt.Fprintf(w, "  %-9s %6d\n", k, kinds[k])
		}
	}
	if last == 0 {
		return
	}
	fmt.Fprintf(w, "last causal chain (id %d):\n", last)
	var t0 time.Duration
	for _, ev := range d.Events {
		if ev.Cause != last {
			continue
		}
		if t0 == 0 {
			t0 = ev.T
		}
		fmt.Fprintf(w, "  +%-12v %-9s", (ev.T - t0).Round(time.Microsecond), ev.Kind)
		if ev.Seq != 0 {
			fmt.Fprintf(w, " seq=%d", ev.Seq)
		}
		if ev.Cmd != 0 {
			fmt.Fprintf(w, " %s", ev.Cmd)
		}
		fmt.Fprintln(w)
	}
}

// Blame aggregates breach dumps into the per-stage attribution table —
// how many breaches each pipeline stage dominated, its share and average
// latencies — for the whole set and split by session.
type Blame struct {
	Total    BlameTable
	Sessions map[uint32]*BlameTable
}

// Add accumulates one dump under the verdict stamped at breach time;
// reattribute — or a dump that carries no verdict — re-walks the recorded
// events instead (Reattribute).
func (b *Blame) Add(d *Dump, reattribute bool) {
	v := d.Verdict
	if reattribute || v == nil {
		r := Reattribute(d)
		v = &r
	}
	if b.Sessions == nil {
		b.Sessions = make(map[uint32]*BlameTable)
	}
	st := b.Sessions[d.Session]
	if st == nil {
		st = &BlameTable{}
		b.Sessions[d.Session] = st
	}
	b.Total.AddVerdict(*v, d.LatencyNs)
	st.AddVerdict(*v, d.LatencyNs)
}

// Format renders the aggregate table, then one table per session when the
// dumps came from more than one.
func (b *Blame) Format(w io.Writer) error {
	fmt.Fprintf(w, "%d dumps from %d sessions\n", b.Total.Total, len(b.Sessions))
	if err := b.Total.Format(w); err != nil || len(b.Sessions) < 2 {
		return err
	}
	ids := make([]uint32, 0, len(b.Sessions))
	for id := range b.Sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(w, "\nsession %d:\n", id)
		if err := b.Sessions[id].Format(w); err != nil {
			return err
		}
	}
	return nil
}
