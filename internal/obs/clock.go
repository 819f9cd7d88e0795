package obs

import (
	"sync/atomic"
	"time"
)

// Clock is the one answer to "what time is it" in a clock domain. Every
// observer that stamps its own events — the flight recorder, the SLO and
// path-quality trackers, the host monitor — reads a Clock instead of
// keeping an epoch of its own, so what they record lands on one timeline
// and evidence from one can be laid over evidence from another without
// translation.
//
// The wall domain has exactly one clock, Wall: monotonic time since a
// process-wide epoch. A sim-domain clock is a virtual instant its harness
// moves: Set when the harness owns time outright (it may rewind, to replay
// console feedback after the sends that provoked it), Advance from
// explicit-timestamp observe calls, which may arrive out of order and must
// never move time backward.
type Clock struct {
	domain Domain
	ns     atomic.Int64 // sim only: the virtual now
}

// wallEpoch is the zero of the wall timeline.
var wallEpoch = time.Now()

// Wall is the process-wide wall clock.
var Wall = &Clock{domain: DomainWall}

// NewClock returns the clock for a domain: Wall for DomainWall, a fresh
// virtual clock at zero for DomainSim.
func NewClock(d Domain) *Clock {
	if d == DomainWall {
		return Wall
	}
	return &Clock{domain: DomainSim}
}

// Domain reports the clock's domain.
func (c *Clock) Domain() Domain { return c.domain }

// Now reports the current instant on the clock's timeline.
func (c *Clock) Now() time.Duration {
	if c.domain == DomainWall {
		return time.Since(wallEpoch)
	}
	return time.Duration(c.ns.Load())
}

// At is Now for a moment the caller has already read from Wall: the wall
// clock answers with that reading, so observers stamping one instant share
// one clock read, and a sim clock answers with its virtual now.
func (c *Clock) At(wall time.Duration) time.Duration {
	if c.domain == DomainWall {
		return wall
	}
	return time.Duration(c.ns.Load())
}

// Set moves a virtual clock to t, forward or back. The wall clock refuses.
func (c *Clock) Set(t time.Duration) {
	c.mustSim("Set")
	c.ns.Store(int64(t))
}

// Advance moves a virtual clock forward to t; an earlier t leaves it
// alone. The wall clock refuses.
func (c *Clock) Advance(t time.Duration) {
	c.mustSim("Advance")
	for {
		cur := c.ns.Load()
		if int64(t) <= cur || c.ns.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

func (c *Clock) mustSim(op string) {
	if c.domain != DomainSim {
		panic("obs: " + op + " on the wall clock; only sim-domain clocks are settable")
	}
}
