package obs

import (
	"sync/atomic"
	"time"
)

// WindowSlots is a rolling window's resolution: the window is this many
// rotating slots, each covering span/WindowSlots of time.
const WindowSlots = 16

// Window is a rolling accounting window over a Clock's timeline: a fixed
// ring of epoch-tagged slots, each holding three counters whose meaning
// belongs to the caller (the SLO tracker counts events and breaches, the
// path estimator acked and lost sequences and acked bytes). Slots expire
// on read by epoch comparison, so an idle window decays to zero with no
// sweeper goroutine, and a slot whose epoch is stale is rotated by CAS on
// the observe path — lock-free and allocation-free. Call Init before use.
type Window struct {
	slotNs int64
	slots  [WindowSlots]windowSlot
}

type windowSlot struct {
	epoch atomic.Int64
	n     [3]atomic.Int64
}

// Init sets the time the window covers.
func (w *Window) Init(span time.Duration) {
	w.slotNs = int64(span) / WindowSlots
	if w.slotNs <= 0 {
		w.slotNs = 1
	}
}

// Span reports the time the window covers.
func (w *Window) Span() time.Duration { return time.Duration(w.slotNs * WindowSlots) }

// Add counts a, b and c at the instant nowNs (which must not be negative).
//
// A writer that finds its slot already tagged with a later epoch drops its
// counts. The slot can only have moved on by whole revolutions of the ring,
// so such an instant is at least one full window older than data already
// recorded: it has expired from every read that can see the newer slot,
// and folding it in would bill an expired event to the present. The same
// goes for a writer that loses the rotation CAS to a later epoch.
//
// Rotation itself is racy by design: the writer that wins the CAS zeroes
// the counters, so an add that checked the epoch just before the rotation
// lands either side of the reset — at most one miscounted add per writer
// per rotation, the price of a lock-free observe path.
func (w *Window) Add(nowNs, a, b, c int64) {
	e := nowNs / w.slotNs
	s := &w.slots[e%WindowSlots]
	if cur := s.epoch.Load(); cur != e {
		if cur > e {
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			for i := range s.n {
				s.n[i].Store(0)
			}
		} else if s.epoch.Load() != e {
			return
		}
	}
	for i, d := range [...]int64{a, b, c} {
		if d != 0 {
			s.n[i].Add(d)
		}
	}
}

// Expiry reports the first instant at which an add at nowNs has left the
// window: Totals from then on no longer counts it.
func (w *Window) Expiry(nowNs int64) int64 {
	return (nowNs/w.slotNs + WindowSlots) * w.slotNs
}

// Totals sums the slots still inside the window as of nowNs. Expiry is
// purely epoch arithmetic: a slot whose epoch fell out of the trailing
// WindowSlots contributes nothing.
func (w *Window) Totals(nowNs int64) (a, b, c int64) {
	cur := nowNs / w.slotNs
	oldest := cur - WindowSlots + 1
	for i := range w.slots {
		s := &w.slots[i]
		if e := s.epoch.Load(); e >= oldest && e <= cur {
			a += s.n[0].Load()
			b += s.n[1].Load()
			c += s.n[2].Load()
		}
	}
	return a, b, c
}
