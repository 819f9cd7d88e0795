package console

import (
	"time"

	"slim/internal/protocol"
)

// STATUS is the console's feedback — the highest display sequence applied
// and the drop count — consumed by the server's recovery path (§2.2) and
// the passive path estimators. When one goes out is decided here alone, as
// a function of the now the console is handed, so a socket's timers and a
// harness's virtual clock run one rule: a delayed ack rides HandleDatagram's
// replies, and Poll returns the trailing ack or the idle heartbeat. Time
// counts from zero, so a fresh console polled at now ≥ StatusInterval
// announces itself at once: that is what makes a reboot visible. A line
// quiet for a StatusInterval pushes no gap past the reorder window, so Poll
// settles every hole below the highest arrival with a NACK instead.
const (
	// StatusInterval is the idle heartbeat cadence, steady because jitter
	// estimation measures it.
	StatusInterval = 500 * time.Millisecond
	// StatusAckDelay is the least spacing of acks. Acking on receipt keeps
	// passive RTT samples near the path RTT; a timer alone inflates them.
	StatusAckDelay = 20 * time.Millisecond
)

// feedback is the STATUS bookkeeping, guarded by Console.mu.
type feedback struct {
	at               time.Duration // the now of the last STATUS
	arrived          time.Duration // the now of the last display datagram
	applied, dropped uint64        // the counters it acknowledged
	msg              protocol.Status
	slots            []statusSlot
}

// statusSlot backs one STATUS: the datagram and the one-element reply list
// it usually travels in. Acks ride the per-datagram path, so slots come 64
// to an allocation. Both slices have cap == len: appending copies.
type statusSlot struct {
	list [1][]byte
	wire [protocol.HeaderSize + 10]byte
}

// Poll returns what is due at now, or nil: the NACKs of holes a quiet line
// settles, then the STATUS — the trailing ack a burst's rate limit held
// back, the idle heartbeat, or the report of a settled arrival. Transports
// call it every StatusAckDelay of their clock.
func (c *Console) Poll(now time.Duration) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var replies [][]byte
	if now-c.feedback.arrived >= StatusInterval {
		replies = c.nackLocked(replies, c.gaps.Settle())
	}
	if replies == nil && !c.ackDue(now) && now-c.feedback.at < StatusInterval {
		return nil
	}
	return c.statusLocked(replies, now)
}

// ackDue reports whether a counter moved since the last STATUS and
// StatusAckDelay has passed since it. Callers hold c.mu, here and below.
func (c *Console) ackDue(now time.Duration) bool {
	f := &c.feedback
	return (c.applied != f.applied || c.dropped != f.dropped) && now-f.at >= StatusAckDelay
}

// ackLocked adds the delayed ack, when due, to a datagram's replies.
func (c *Console) ackLocked(replies [][]byte, now time.Duration) [][]byte {
	if !c.ackDue(now) {
		return replies
	}
	return c.statusLocked(replies, now)
}

// statusLocked adds a STATUS sent at now to replies and notes what it
// acknowledged.
func (c *Console) statusLocked(replies [][]byte, now time.Duration) [][]byte {
	f := &c.feedback
	f.at, f.applied, f.dropped = now, c.applied, c.dropped
	if len(f.slots) == 0 {
		f.slots = make([]statusSlot, 64)
	}
	s := &f.slots[0]
	f.slots = f.slots[1:]
	f.msg = protocol.Status{LastSeq: c.lastSeqLocked(), Dropped: uint32(c.dropped)}
	s.list[0] = protocol.Encode(s.wire[:0], c.seq.Next(), &f.msg)
	if replies == nil {
		return s.list[:]
	}
	return append(replies, s.list[0])
}

// lastSeqLocked is the STATUS lastSeq: the highest display sequence
// delivered in order, or 0 while the console shows no session. A console
// rebooted under a live session holds nothing of it, whatever paint has
// reached it since; reporting 0 is what tells the server so.
func (c *Console) lastSeqLocked() uint32 {
	if c.sessionID == 0 {
		return 0
	}
	return c.gaps.Highest()
}
