package console

import (
	"os"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/obs/capture"
	"slim/internal/protocol"
	"slim/internal/raceflag"
)

func fillWire(seq uint32) []byte {
	return protocol.Encode(nil, seq, &protocol.Fill{Rect: protocol.Rect{W: 8, H: 8}, Color: protocol.Pixel(seq)})
}

// statusIn decodes replies and returns the STATUS messages among them.
func statusIn(t testing.TB, replies ...[]byte) []*protocol.Status {
	t.Helper()
	var out []*protocol.Status
	for _, r := range replies {
		_, msg, n, err := protocol.Decode(r)
		if err != nil || n != len(r) {
			t.Fatalf("reply % x does not decode (consumed %d): %v", r, n, err)
		}
		if st, ok := msg.(*protocol.Status); ok {
			out = append(out, st)
		}
	}
	return out
}

// showingConsole returns a test console attached to session 1, as the
// server's SessionAttach leaves it.
func showingConsole(t *testing.T) *Console {
	t.Helper()
	c := newTestConsole(t, nil)
	if _, err := c.Handle(0, &protocol.SessionAttach{SessionID: 1}, 0); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStatusCadence walks the rule on a virtual clock: an ack on receipt
// once StatusAckDelay has passed, silence inside a burst, the trailing ack
// from Poll, then the idle heartbeat every StatusInterval.
func TestStatusCadence(t *testing.T) {
	c := showingConsole(t)
	handle := func(seq uint32, now time.Duration) []*protocol.Status {
		t.Helper()
		replies, err := c.HandleDatagram(fillWire(seq), now)
		if err != nil {
			t.Fatal(err)
		}
		return statusIn(t, replies...)
	}
	poll := func(now time.Duration) []*protocol.Status {
		t.Helper()
		return statusIn(t, c.Poll(now)...)
	}
	const ms = time.Millisecond

	if st := poll(0); st != nil {
		t.Fatalf("fresh console at time zero sent %+v", st[0])
	}
	if st := handle(1, 100*ms); len(st) != 1 || st[0].LastSeq != 1 {
		t.Fatalf("first command not acknowledged on receipt: %+v", st)
	}
	for seq := uint32(2); seq <= 5; seq++ {
		if st := handle(seq, 100*ms+time.Duration(seq)*ms); st != nil {
			t.Fatalf("command %d acknowledged %v after the last STATUS, inside StatusAckDelay", seq, time.Duration(seq)*ms)
		}
	}
	if st := poll(100*ms + StatusAckDelay - ms); st != nil {
		t.Fatal("trailing ack sent before StatusAckDelay passed")
	}
	if st := poll(100*ms + StatusAckDelay); len(st) != 1 || st[0].LastSeq != 5 {
		t.Fatalf("trailing ack = %+v, want LastSeq 5", st)
	}
	acked := 100*ms + StatusAckDelay
	if st := poll(acked + StatusInterval - ms); st != nil {
		t.Fatal("idle heartbeat sent before StatusInterval passed")
	}
	if st := poll(acked + StatusInterval); len(st) != 1 || st[0].LastSeq != 5 {
		t.Fatalf("idle heartbeat = %+v, want LastSeq 5", st)
	}
	if st := poll(acked + StatusInterval); st != nil {
		t.Fatal("two STATUS for one now")
	}
	// Non-display traffic moves no counter and draws no ack.
	replies, err := c.HandleDatagram(protocol.Encode(nil, 0, &protocol.Ping{Nonce: 1}), acked+2*StatusInterval-ms)
	if err != nil {
		t.Fatal(err)
	}
	if st := statusIn(t, replies...); st != nil {
		t.Fatalf("a Ping drew a STATUS: %+v", st[0])
	}
}

// TestRebootedConsoleHoldsNothing: a console showing no session reports
// LastSeq 0 whatever paint reaches it. Rebooted under a live session
// without a Hello, it would otherwise take the first paint it is sent as
// the baseline of everything before it, and never be repainted. Once a
// SessionAttach names its session, the numbering counts again.
func TestRebootedConsoleHoldsNothing(t *testing.T) {
	c := newTestConsole(t, nil)
	if _, err := c.HandleDatagram(fillWire(700), 0); err != nil {
		t.Fatal(err)
	}
	if st := statusIn(t, c.Poll(StatusInterval)...); len(st) != 1 || st[0].LastSeq != 0 {
		t.Fatalf("a console showing no session sent %+v after a paint, want LastSeq 0", st)
	}
	if _, err := c.Handle(0, &protocol.SessionAttach{SessionID: 9}, StatusInterval); err != nil {
		t.Fatal(err)
	}
	if _, err := c.HandleDatagram(fillWire(701), StatusInterval); err != nil {
		t.Fatal(err)
	}
	if st := statusIn(t, c.Poll(2*StatusInterval)...); len(st) != 1 || st[0].LastSeq != 701 {
		t.Fatalf("the attached console sent %+v, want LastSeq 701", st)
	}
}

// TestPollSettlesAQuietLine: a hole below the highest arrival is left to the
// reorder window while datagrams may still come; once none has arrived for
// a StatusInterval, Poll NACKs it, and the STATUS after the NACK reports
// the arrival.
func TestPollSettlesAQuietLine(t *testing.T) {
	c := showingConsole(t)
	for _, seq := range []uint32{1, 2, 4} {
		if _, err := c.HandleDatagram(fillWire(seq), 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := statusIn(t, c.Poll(StatusInterval-time.Millisecond)...); len(st) != 1 || st[0].LastSeq != 2 {
		t.Fatalf("trailing ack = %+v, want LastSeq 2 with the hole still open", st)
	}
	replies := c.Poll(StatusInterval)
	if len(replies) != 2 {
		t.Fatalf("the settling poll sent %d datagrams, want a NACK and a STATUS", len(replies))
	}
	if _, msg, _, err := protocol.Decode(replies[0]); err != nil {
		t.Fatal(err)
	} else if n, ok := msg.(*protocol.Nack); !ok || *n != (protocol.Nack{From: 3, To: 3}) {
		t.Errorf("first reply = %+v, want NACK {3 3}", msg)
	}
	if st := statusIn(t, replies[1]); len(st) != 1 || st[0].LastSeq != 4 {
		t.Errorf("STATUS after the settle = %+v, want LastSeq 4", st)
	}
	if again := c.Poll(StatusInterval + StatusAckDelay); again != nil {
		t.Errorf("a settled console sent %d more datagrams", len(again))
	}
}

// TestStatusPathAllocs pins the cost of the rule on the per-datagram path:
// a datagram that draws an ack allocates what one that does not does (the
// decoded message and nothing else), and a Poll with nothing due is free.
func TestStatusPathAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	c := newTestConsole(t, nil)
	wire := fillWire(1)
	now := time.Duration(0)
	quiet := testing.AllocsPerRun(200, func() {
		if _, err := c.HandleDatagram(wire, now); err != nil {
			t.Fatal(err)
		}
	})
	acking := testing.AllocsPerRun(200, func() {
		now += StatusAckDelay
		replies, err := c.HandleDatagram(wire, now)
		if err != nil || len(replies) != 1 {
			t.Fatalf("replies = %d, %v; want the ack", len(replies), err)
		}
	})
	// The slabs refill once per statusSlab acks: amortised, under 0.1.
	if acking > quiet+0.1 {
		t.Errorf("a datagram drawing an ack allocates %.2f, one that does not %.2f", acking, quiet)
	}
	if idle := testing.AllocsPerRun(200, func() { c.Poll(now) }); idle != 0 {
		t.Errorf("Poll with nothing due allocates %.2f", idle)
	}
}

// FuzzConsoleHandleDatagram feeds raw bytes to the entry point both
// transports hand a socket's (or the fabric's) datagrams to.
func FuzzConsoleHandleDatagram(f *testing.F) {
	seed, err := os.Open("../protocol/testdata/seed.slimcap")
	if err != nil {
		f.Fatal(err)
	}
	_, recs, err := capture.ReadCapture(seed)
	seed.Close()
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range recs {
		if len(rec.Wire) > 0 {
			f.Add(rec.Wire, uint16(25))
		}
	}
	f.Add([]byte{0x53, 0x4c, 1, 0}, uint16(0))
	f.Fuzz(func(t *testing.T, wire []byte, nowMs uint16) {
		c, err := New(Config{Width: 64, Height: 48, TileCacheEntries: core.DefaultTileCacheEntries})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Duration(nowMs) * time.Millisecond
		var applied, dropped uint64
		var sent []*protocol.Status
		check := func(replies ...[]byte) {
			t.Helper()
			sent = append(sent, statusIn(t, replies...)...)
			a, d := c.Counters()
			if a < applied || d < dropped {
				t.Fatalf("counters went back: applied %d→%d, dropped %d→%d", applied, a, dropped, d)
			}
			applied, dropped = a, d
		}
		for i := 0; i < 2; i++ {
			replies, _ := c.HandleDatagram(wire, now)
			check(replies...)
		}
		check(c.Poll(now)...)
		if len(sent) > 1 {
			t.Fatalf("%d STATUS for one now", len(sent))
		}
		// Whatever the datagram did, the console still owes — and sends —
		// a truthful heartbeat.
		sent = nil
		check(c.Poll(now + StatusInterval)...)
		if want := c.Status(); len(sent) != 1 || *sent[0] != *want {
			t.Fatalf("heartbeat = %+v, want one carrying %+v", sent, want)
		}
	})
}
