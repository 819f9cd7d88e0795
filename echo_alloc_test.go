package slim

import (
	"testing"
	"time"

	"slim/internal/raceflag"
)

// TestFabricAllocsPerEcho pins the garbage one keystroke echo makes end to
// end: a key press and release over the in-process fabric to a governed
// gen-2 terminal session on a 640×480 console — the fleet benchmark's
// echo, one 42-byte BITMAP — with the clock moving 10 ms per echo and the
// cursor homed every 70 echoes so the line never wraps or scrolls. What
// is left averages eight and a half (AllocsPerRun rounds it to 8): the
// two key messages, the terminal's op and its slice, the encoder's BITMAP
// and the slice Encode returns, the console's decoded BITMAP and its
// bits, and every other echo the STATUS the server decodes. A per-echo
// slice anywhere else — the outbound queue, a list of tiles, the fabric's
// FIFOs, a span's histograms — shows up here.
func TestFabricAllocsPerEcho(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 8
	echo, screensAgree := fabricEcho(t)
	allocs := testing.AllocsPerRun(700, echo)
	t.Logf("%.0f allocations per echo", allocs)
	if allocs > budget {
		t.Errorf("a 42-byte fabric echo allocates %.0f objects, want at most %d", allocs, budget)
	}
	if !screensAgree() {
		t.Fatal("the console's screen diverged from its session's")
	}
}

// BenchmarkFabricEcho times TestFabricAllocsPerEcho's echo: what one
// keystroke costs end to end on the fabric with every observer armed —
// the profile to take when asking what an echo pays to be watched.
func BenchmarkFabricEcho(b *testing.B) {
	echo, screensAgree := fabricEcho(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		echo()
	}
	b.StopTimer()
	if !screensAgree() {
		b.Fatal("the console's screen diverged from its session's")
	}
}

// fabricEcho builds TestFabricAllocsPerEcho's rig on a private telemetry
// kit and returns its echo, already run 140 times to warm the pools, the
// tile cache and the governor's grant, and a check that the console's
// screen still equals its session's.
func fabricEcho(tb testing.TB) (echo func(), screensAgree func() bool) {
	tb.Helper()
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp(), WithFlowControl(FlowConfig{}), WithCodec2(),
		WithTelemetry(NewTelemetry()))
	con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, TileCacheEntries: DefaultTileCacheEntries})
	if err != nil {
		tb.Fatal(err)
	}
	fabric.Attach("desk", con, srv)
	tok := TokenOf("card-alice")
	srv.Auth.Register(tok.String(), "alice")
	if err := fabric.Boot("desk", tok.String()); err != nil {
		tb.Fatal(err)
	}
	port := fabric.Desk("desk")
	var clock time.Duration
	echoes := 0
	echo = func() {
		clock += 10 * time.Millisecond
		fabric.SetClock(clock)
		if echoes%70 == 0 {
			if err := port.SendPointer(0, 0, 1); err != nil {
				tb.Fatal(err)
			}
		}
		echoes++
		if err := port.SendKey('a'+uint16(echoes%26), true); err != nil {
			tb.Fatal(err)
		}
		if err := port.SendKey('a'+uint16(echoes%26), false); err != nil {
			tb.Fatal(err)
		}
	}
	for range 140 {
		echo()
	}
	return echo, func() bool {
		sess := srv.SessionOf("desk")
		return sess != nil && con.Framebuffer().Equal(sess.Encoder.FB)
	}
}

// TestFifoBoundsItsArrayUnderSteadySenders keeps a fabric FIFO from ever
// emptying — three datagrams queued, one pushed for every one popped, as
// when senders keep a drain busy — and checks it stays first in, first
// out on an array that does not grow with the traffic.
func TestFifoBoundsItsArrayUnderSteadySenders(t *testing.T) {
	var q fifo
	wire := func(i int) []byte { return []byte{byte(i), byte(i >> 8)} }
	for i := range 3 {
		q.push(queuedDatagram{wire: wire(i)})
	}
	for i := range 10000 {
		q.push(queuedDatagram{wire: wire(i + 3)})
		if d := q.pop(); string(d.wire) != string(wire(i)) {
			t.Fatalf("pop %d: got %v, want %v", i, d.wire, wire(i))
		}
		if q.len() != 3 {
			t.Fatalf("pop %d: %d queued, want 3", i, q.len())
		}
	}
	if c := cap(q.items); c > 16 {
		t.Fatalf("backing array grew to %d slots for 3 queued datagrams", c)
	}
}
