package slim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
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
	r := newEchoRig(t, 1, 1, 10*time.Millisecond, 0)
	allocs := testing.AllocsPerRun(700, r.echo)
	t.Logf("%.0f allocations per echo", allocs)
	if allocs > budget {
		t.Errorf("a 42-byte fabric echo allocates %.0f objects, want at most %d", allocs, budget)
	}
	r.screensAgree()
}

// TestFabricEchoIsWatchedOnce counts what observing TestFabricAllocsPerEcho's
// echo records. Only the press draws, so only the press opens a chain and
// is timed: per echo the ring takes an INPUT, ENCODE, TX, RX and PAINT,
// plus every other echo the console's STATUS — 5.5 events, where timing
// the release too made it 7.5 (its INPUT, and an OP per op) — and the SLO
// takes one observation, not two. The homing click every 70 echoes draws
// nothing and adds to neither.
func TestFabricEchoIsWatchedOnce(t *testing.T) {
	const echoes = 140
	r := newEchoRig(t, 1, 1, 10*time.Millisecond, 0)
	id := r.dir.SessionOf(r.desks[0]).ID
	ring0 := len(r.kit.Flight.Events(id, 0))
	slo0 := r.kit.SLO.Status().Windows[0].Events
	for range echoes {
		r.echo()
	}
	evs := r.kit.Flight.Events(id, 0)
	if len(evs) >= flight.DefaultRingSize {
		t.Fatalf("the ring wrapped (%d events); the count needs every event", len(evs))
	}
	kinds := make(map[flight.Kind]int)
	for _, ev := range evs[ring0:] {
		kinds[ev.Kind]++
	}
	if got, want := len(evs)-ring0, echoes*11/2; got != want {
		t.Errorf("%d echoes recorded %d ring events (%v), want %d: 5.5 per echo", echoes, got, kinds, want)
	}
	for _, k := range []flight.Kind{flight.EvInput, flight.EvEncode, flight.EvTx, flight.EvRx, flight.EvPaint} {
		if kinds[k] != echoes {
			t.Errorf("%d echoes recorded %d %v events, want one each", echoes, kinds[k], k)
		}
	}
	if got := r.kit.SLO.Status().Windows[0].Events - slo0; got != echoes {
		t.Errorf("%d echoes made %d SLO observations, want one each", echoes, got)
	}
	r.screensAgree()
}

// BenchmarkFabricEcho times TestFabricAllocsPerEcho's echo: what one
// keystroke costs end to end on the fabric with every observer armed —
// the profile to take when asking what an echo pays to be watched. Its
// one session fits in L2, so it under-prices stores to cold lines; profile
// a claim about the fleet with BenchmarkFleetEcho.
func BenchmarkFabricEcho(b *testing.B) {
	benchEcho(b, newEchoRig(b, 1, 1, 10*time.Millisecond, 0))
}

// BenchmarkFleetEcho is the fleet_fabric workload's shape as a Go
// benchmark: 32 governed gen-2 640×480 consoles on a 4-shard broker over
// the fabric, one echo per console in turn, the clock moving 10 µs per
// echo and the governors pumped every 20 ms of it, as the benchmark
// driver's idle pump does.
func BenchmarkFleetEcho(b *testing.B) {
	benchEcho(b, newEchoRig(b, 32, 4, 10*time.Microsecond, 20*time.Millisecond))
}

func benchEcho(b *testing.B, r *echoRig) {
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		r.echo()
	}
	b.StopTimer()
	r.screensAgree()
}

// echoRig is the echo tests' rig on a private telemetry kit, which the
// consoles record into too, as on one machine, and a private capture ring,
// disabled until a test enables it: governed
// gen-2 terminal sessions on 640×480 consoles over the fabric, behind one
// server or a broker of shards. echo types one key press and release at
// the next console in turn, moving the clock by step first, pumping the
// governors when pump (if not 0) has passed since the last time, and
// homing that console's cursor with a click every 70 of its echoes; it
// has already run 140 times per console to warm the pools, the tile cache
// and the governors' grants.
type echoRig struct {
	tb     testing.TB
	kit    *TelemetryKit
	wire   *capture.Ring
	fabric *Fabric
	dir    Directory
	desks  []string
	ports  []Desk
	step   time.Duration
	pump   time.Duration
	clock  time.Duration
	pumped time.Duration
	n      int
}

func newEchoRig(tb testing.TB, consoles, shards int, step, pump time.Duration) *echoRig {
	tb.Helper()
	r := &echoRig{tb: tb, kit: NewTelemetry(), wire: capture.NewRing(1 << 12), fabric: NewFabric(), step: step, pump: pump}
	r.fabric.SetCapture(r.wire)
	opts := []ServerOption{WithTelemetry(r.kit)}
	if shards == 1 {
		r.dir = NewSingle(NewServer(r.fabric, WithTerminalApp(), opts...))
	} else {
		ctx, cancel := context.WithCancel(context.Background())
		tb.Cleanup(cancel)
		b, err := NewBroker(ctx, BrokerConfig{Shards: shards}, r.fabric, WithTerminalApp(), opts...)
		if err != nil {
			tb.Fatal(err)
		}
		r.dir = b
	}
	for i := range consoles {
		user, desk := fmt.Sprintf("user-%02d", i), fmt.Sprintf("desk-%02d", i)
		con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, TileCacheEntries: DefaultTileCacheEntries,
			Obs: r.kit.Registry, Flight: r.kit.Flight})
		if err != nil {
			tb.Fatal(err)
		}
		r.fabric.Attach(desk, con, r.dir)
		tok := TokenOf("card-" + user)
		r.dir.Register(tok, user)
		if err := r.fabric.Boot(desk, tok.String()); err != nil {
			tb.Fatal(err)
		}
		r.desks = append(r.desks, desk)
		r.ports = append(r.ports, r.fabric.Desk(desk))
	}
	for range 140 * consoles {
		r.echo()
	}
	return r
}

func (r *echoRig) echo() {
	r.clock += r.step
	r.fabric.SetClock(r.clock)
	if r.pump > 0 && r.clock-r.pumped >= r.pump {
		r.pumped = r.clock
		if _, _, err := r.dir.PumpFlows(r.clock); err != nil {
			r.tb.Fatal(err)
		}
	}
	port, k := r.ports[r.n%len(r.ports)], r.n/len(r.ports)
	r.n++
	if k%70 == 0 {
		if err := port.SendPointer(0, 0, 1); err != nil {
			r.tb.Fatal(err)
		}
	}
	code := 'a' + uint16((k+1)%26)
	if err := port.SendKey(code, true); err != nil {
		r.tb.Fatal(err)
	}
	if err := port.SendKey(code, false); err != nil {
		r.tb.Fatal(err)
	}
}

// screensAgree fails the test unless every console's screen equals its
// session's.
func (r *echoRig) screensAgree() {
	r.tb.Helper()
	for _, desk := range r.desks {
		con, err := r.fabric.Console(desk)
		if err != nil {
			r.tb.Fatal(err)
		}
		if sess := r.dir.SessionOf(desk); sess == nil || !con.Framebuffer().Equal(sess.Encoder.FB) {
			r.tb.Fatalf("%s: the console's screen diverged from its session's", desk)
		}
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
