package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"time"

	"slim"
)

// A rig is one assembled system under test: the real server side, the
// real console side, and the transport between them, built as a deployment
// would build them through the public slim API (growReceiveBuffer is the
// one exception). Two rigs
// exist: udpRig (slim.ListenAndServeContext ↔ slim.DialConsoleContext on
// loopback) and fabricRig (one server or a slim.NewBroker fleet over
// slim.NewFabric).
type rig interface {
	// input sends input i — key-down then key-up — from the console of the
	// session that owns it.
	input(i int) error
	// painted blocks until the paint for input i (the most recent input)
	// reached its console's frame buffer, or the deadline passes.
	painted(i int, deadline time.Time) bool
	// counters reports cumulative server→console transport traffic.
	counters() transportCounters
	// verify is the correctness gate: every console's frame buffer equals
	// its session's, and no console dropped a command.
	verify() error
	// close terminates the sessions and releases the transport.
	close()
}

// transportCounters is cumulative transport accounting; rigs report
// process-wide counters, so callers work with differences.
type transportCounters struct {
	txBytes, txDatagrams, rxDatagrams, txErrors int64
}

func (c transportCounters) add(o transportCounters) transportCounters {
	return transportCounters{
		txBytes:     c.txBytes + o.txBytes,
		txDatagrams: c.txDatagrams + o.txDatagrams,
		rxDatagrams: c.rxDatagrams + o.rxDatagrams,
		txErrors:    c.txErrors + o.txErrors,
	}
}

func (c transportCounters) sub(o transportCounters) transportCounters {
	return transportCounters{
		txBytes:     c.txBytes - o.txBytes,
		txDatagrams: c.txDatagrams - o.txDatagrams,
		rxDatagrams: c.rxDatagrams - o.rxDatagrams,
		txErrors:    c.txErrors - o.txErrors,
	}
}

// paintTimeout is how long an input may stay unpainted before it counts
// as failed (and so misses every latency limit).
const paintTimeout = 2 * time.Second

const (
	benchCard = "card-bench"
	benchUser = "bench"
)

// seqReached reports whether a console that has seen display sequence
// have has reached want, tolerating wrap-around.
func seqReached(have, want uint32) bool { return int32(have-want) >= 0 }

// --- live loopback UDP ---

// udpRig is one server socket and one console socket on loopback, each
// with the goroutines the library itself starts (serve, flow pacer,
// console serve and heartbeat). The driver is the only other goroutine.
type udpRig struct {
	w      workloadSpec
	in     *inputs
	cancel context.CancelFunc
	srv    *slim.UDPServer
	con    *slim.UDPConsole
	app    *benchApp
	// ups is the application's key-up count before the last input was
	// sent; the input has been handled once the count moves past it.
	ups uint32
}

func newUDPRig(w workloadSpec, in *inputs) (*udpRig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &udpRig{w: w, in: in, cancel: cancel}
	var apps []*benchApp
	srv, err := slim.ListenAndServeContext(ctx, "127.0.0.1:0", appFactory(w, in, nil, &apps), serverOptions()...)
	if err != nil {
		cancel()
		return nil, err
	}
	r.srv = srv
	srv.Server.Auth.Register(benchCard, benchUser)
	// The console boots to the login screen first, so its socket exists —
	// and can be given room for the attach repaint — before the card goes
	// in and the repaint is sent.
	con, err := slim.DialConsoleContext(ctx, srv.Addr().String(), consoleConfig(w), slim.NoToken)
	if err != nil {
		r.close()
		return nil, err
	}
	r.con = con
	if err := growReceiveBuffer(srv.Addr().(*net.UDPAddr)); err != nil {
		r.close()
		return nil, err
	}
	if err := con.InsertCard(benchCard); err != nil {
		r.close()
		return nil, err
	}
	deadline := time.Now().Add(3 * time.Second)
	for con.Console.SessionID() == 0 {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("%s: console never attached over UDP", w.name)
		}
		time.Sleep(time.Millisecond)
	}
	// SessionByUser takes the server lock, which orders this read of apps
	// after the attach that appended to it.
	sess := srv.Server.SessionByUser(benchUser)
	if sess == nil || len(apps) != 1 {
		r.close()
		return nil, fmt.Errorf("%s: attach created no session", w.name)
	}
	r.app = apps[0]
	r.app.enc.Store(sess.Encoder)
	if err := r.awaitRepaint(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// consoleReceiveBuffer is the receive buffer the harness asks for on the
// console's socket: room for a full 1280x1024 gen-2 attach repaint (5 120
// tile-sized datagrams at ~770 bytes of kernel accounting each).
const consoleReceiveBuffer = 4 << 20

// growReceiveBuffer raises SO_RCVBUF on the console's UDP socket: the one
// socket of this process connected to server, which the harness has to find
// by its peer address because DialConsoleContext keeps it private. It is
// the one thing the harness does to the system under test that a deployment
// could not do through the public API (it would raise net.core.rmem_default
// instead), and the reason is that nothing can be measured without it. A
// gen-2 attach repaints the screen as one 28-byte datagram per tile, back
// to back; a socket at the default 208 KiB holds some 270 of them; and on
// these virtual machines a sleeping reader is woken only milliseconds
// after the first one arrives. Measured at 640x480 (1 200 tiles), between
// one attach in eight and every attach in forty lost datagrams, depending
// on the minute; recovery by NACK then takes from 0.1 s to over 30 s and
// sometimes leaves the mirrored tile caches drifting for good; at 1280x1024
// the burst outruns the encoder's replay ring, every NACK becomes another
// full repaint, and one 300-key warm-up took 54 s. README.md reports this
// as a program finding.
func growReceiveBuffer(server *net.UDPAddr) error {
	for fd := 3; fd < 1024; fd++ {
		sa, err := syscall.Getpeername(fd)
		if err != nil {
			continue
		}
		// The harness listens on 127.0.0.1, so the peer is IPv4.
		if in4, ok := sa.(*syscall.SockaddrInet4); ok && in4.Port == server.Port && server.IP.Equal(net.IP(in4.Addr[:])) {
			return syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, consoleReceiveBuffer)
		}
	}
	return fmt.Errorf("bench: console socket connected to %v not found", server)
}

// awaitRepaint waits for the attach's full-screen repaint to land. A bare
// key-up makes the application publish the encoder's sequence once the
// server has sent it all.
func (r *udpRig) awaitRepaint() error {
	ups0, _ := r.app.published()
	if err := r.con.SendKey(0, false); err != nil {
		return err
	}
	for deadline := time.Now().Add(3 * time.Second); ; time.Sleep(time.Millisecond) {
		ups, seq := r.app.published()
		if ups != ups0 && seqReached(r.con.Console.Status().LastSeq, seq) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: first repaint never completed", r.w.name)
		}
	}
}

func (r *udpRig) input(i int) error {
	code := r.in.keys[i%len(r.in.keys)]
	r.ups, _ = r.app.published()
	if err := r.con.SendKey(code, true); err != nil {
		return err
	}
	return r.con.SendKey(code, false)
}

// painted polls first until the server handled the key-up (which publishes
// the encoder sequence that ends input i's paint), then until the console's
// Status().LastSeq reaches that sequence. Console.Handle holds the console
// lock across observe-and-apply, so a status that reports the sequence also
// means its pixels are in the frame buffer.
//
// Between polls the driver gets out of the program's way for a sixteenth of
// the time waited so far: it yields while that is under pollSpin and sleeps
// beyond, so a 100 µs echo is timed to the poll and a 10 ms video frame to
// a few percent, without a spinning goroutine taking one of the two
// processors from the server's and the console's goroutines for
// milliseconds.
func (r *udpRig) painted(_ int, deadline time.Time) bool {
	start := time.Now()
	for {
		if ups, seq := r.app.published(); ups != r.ups &&
			seqReached(r.con.Console.Status().LastSeq, seq) {
			return true
		}
		now := time.Now()
		if now.After(deadline) {
			return false
		}
		if pause := now.Sub(start) / 16; pause < pollSpin {
			runtime.Gosched()
		} else {
			time.Sleep(pause)
		}
	}
}

// pollSpin is the pause below which the driver yields instead of sleeping:
// a runtime timer is not worth setting for less.
const pollSpin = 20 * time.Microsecond

func (r *udpRig) counters() transportCounters {
	m := slim.Metrics()
	return transportCounters{
		txBytes:     m.Counter("slim_udp_tx_bytes_total").Value(),
		txDatagrams: m.Counter("slim_udp_tx_datagrams_total").Value(),
		rxDatagrams: m.Counter("slim_udp_rx_datagrams_total").Value(),
		txErrors:    m.Counter("slim_udp_tx_errors_total").Value(),
	}
}

func (r *udpRig) verify() error {
	// Both accessors take their owner's lock, ordering these reads after
	// the last writes of the serve goroutines; the rig is quiescent.
	sess := r.srv.Server.SessionByUser(benchUser)
	if !r.con.Console.Framebuffer().Equal(sess.Encoder.FB) {
		n, _ := r.con.Console.Framebuffer().DiffPixels(sess.Encoder.FB)
		return fmt.Errorf("%s: console frame buffer diverges from its session's (%d pixels)", r.w.name, n)
	}
	if _, dropped := r.con.Console.Counters(); dropped != 0 {
		return fmt.Errorf("%s: console dropped %d commands", r.w.name, dropped)
	}
	return nil
}

func (r *udpRig) close() {
	if r.srv != nil {
		_ = r.srv.Server.Terminate(benchUser)
	}
	if r.con != nil {
		r.con.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	r.cancel()
}

// --- in-process fabric ---

// fabricTap is the transport the server side sends through: slim.Fabric
// with byte accounting and, in the traced pass, a fabric.send span and a
// copy of every datagram for replay (in the style of meteredFabric in
// fleet_e2e_test.go). Everything on a fabric rig runs on the driver's
// goroutine, so plain fields suffice.
type fabricTap struct {
	*slim.Fabric
	rec              *recorder
	bytes, datagrams int64
}

func (t *fabricTap) Send(console string, wire []byte) error {
	t.bytes += int64(len(wire))
	t.datagrams++
	if t.rec == nil {
		return t.Fabric.Send(console, wire)
	}
	sp := t.rec.begin(spanFabricSend)
	t.rec.captureWire(console, wire)
	err := t.Fabric.Send(console, wire)
	t.rec.end(sp)
	return err
}

// fabricRig is N consoles attached over the in-process fabric to either
// one server or a 4-shard broker. Deliveries are synchronous: an input
// has painted when SendKey returns, unless its datagrams are held by the
// session's flow governor, in which case painted pumps the governors the
// way the UDP transport's pacer goroutine would.
type fabricRig struct {
	w      workloadSpec
	in     *inputs
	cancel context.CancelFunc
	tap    *fabricTap
	// dir is the server side: the one server, or the broker fronting the
	// fleet (broker is then the same value, for its shard accessors).
	dir    slim.Directory
	broker *slim.Broker
	seats  []seat
	apps   []*benchApp // apps[i] is the application of seats[i]'s session
	// clock is the transport time handed to server and console. A live
	// rig (wall set) reads it from the wall clock before every input; the
	// traced pass leaves wall zero and advances the clock virtually.
	wall     time.Time
	clock    time.Duration
	lastPump time.Duration
}

// seat is one console on a fabric rig, with the card that logs its user in.
type seat struct {
	user, desk string
	port       slim.Desk
	con        *slim.Console
}

// pumpInterval is how often a fabric rig services idle flow governors —
// the UDP pacer goroutine's idle cadence.
const pumpInterval = 20 * time.Millisecond

// newFabricRig assembles sessions consoles on a fabric. viaBroker fronts
// them with the 4-shard fleet; otherwise they share one server. rec, when
// non-nil, traces the rig.
func newFabricRig(w workloadSpec, in *inputs, sessions int, viaBroker bool, rec *recorder) (*fabricRig, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &fabricRig{w: w, in: in, cancel: cancel}
	r.tap = &fabricTap{Fabric: slim.NewFabric(), rec: rec}
	factory := appFactory(w, in, rec, &r.apps)
	if viaBroker {
		b, err := slim.NewBroker(ctx, slim.BrokerConfig{Shards: fleetShards}, r.tap, factory, serverOptions()...)
		if err != nil {
			cancel()
			return nil, err
		}
		r.broker, r.dir = b, b
	} else {
		r.dir = slim.NewSingle(slim.NewServer(r.tap, factory, serverOptions()...))
	}
	for s := 0; s < sessions; s++ {
		user := fmt.Sprintf("user-%02d", s)
		desk := fmt.Sprintf("desk-%02d", s)
		tok := slim.TokenOf("card-" + user)
		con, err := slim.NewConsole(consoleConfig(w))
		if err != nil {
			r.close()
			return nil, err
		}
		r.dir.Register(tok, user)
		r.tap.Attach(desk, con, r.dir)
		r.seats = append(r.seats, seat{user: user, desk: desk, port: r.tap.Desk(desk), con: con})
		if rec != nil {
			rec.addConsole(desk)
		}
		if err := r.tap.Boot(desk, tok.String()); err != nil {
			r.close()
			return nil, fmt.Errorf("%s: boot %s: %w", w.name, desk, err)
		}
		sess := r.dir.SessionOf(desk)
		if sess == nil || len(r.apps) != s+1 {
			r.close()
			return nil, fmt.Errorf("%s: boot %s attached no session", w.name, desk)
		}
		r.apps[s].enc.Store(sess.Encoder)
	}
	return r, nil
}

// setClock sets the rig's transport time.
func (r *fabricRig) setClock(d time.Duration) {
	r.clock = d
	r.tap.SetClock(d)
}

// advanceTo moves transport time forward to t: a live rig waits for the
// wall clock to get there, a virtual one jumps.
func (r *fabricRig) advanceTo(t time.Duration) {
	if !r.wall.IsZero() {
		for time.Since(r.wall) < t {
		}
	}
	r.setClock(t)
}

// owner maps input i to its session (round-robin) and key: every session
// walks the same key cycle from its own starting phase.
func (r *fabricRig) owner(i int) (s int, code uint16) {
	n := len(r.seats)
	s = i % n
	return s, r.in.keys[(i/n+s*97)%len(r.in.keys)]
}

// idlePump services the governors every pumpInterval of transport time,
// as the UDP pacer goroutine does between inputs.
func (r *fabricRig) idlePump() error {
	if r.clock-r.lastPump < pumpInterval {
		return nil
	}
	r.lastPump = r.clock
	_, _, err := r.dir.PumpFlows(r.clock)
	return err
}

func (r *fabricRig) input(i int) error {
	if !r.wall.IsZero() {
		r.setClock(time.Since(r.wall))
	}
	if err := r.idlePump(); err != nil {
		return err
	}
	s, code := r.owner(i)
	if err := r.seats[s].port.SendKey(code, true); err != nil {
		return err
	}
	return r.seats[s].port.SendKey(code, false)
}

func (r *fabricRig) painted(i int, deadline time.Time) bool {
	s, _ := r.owner(i)
	_, seq := r.apps[s].published()
	for n := 0; !seqReached(r.seats[s].con.Status().LastSeq, seq); n++ {
		if n > 1<<16 || time.Now().After(deadline) {
			return false
		}
		// The governor is holding part of the paint: release it on the
		// governor's own schedule, advancing transport time to each
		// release instant — never by less than a millisecond — exactly
		// as the UDP transport's pacer goroutine sleeps between pumps.
		next, _, err := r.pump()
		if err != nil {
			return false
		}
		r.advanceTo(max(next, r.clock+time.Millisecond))
	}
	return true
}

// pump services every governor at the rig's clock. In the traced pass
// the work is a server.pump span, so paced sends nest under it.
func (r *fabricRig) pump() (time.Duration, bool, error) {
	if rec := r.tap.rec; rec != nil {
		sp := rec.begin(spanPump)
		defer rec.end(sp)
	}
	return r.dir.PumpFlows(r.clock)
}

func (r *fabricRig) counters() transportCounters {
	return transportCounters{txBytes: r.tap.bytes, txDatagrams: r.tap.datagrams}
}

func (r *fabricRig) verify() error {
	for _, st := range r.seats {
		con, sess := st.con, r.dir.SessionOf(st.desk)
		if sess == nil {
			return fmt.Errorf("%s: %s lost its session", r.w.name, st.desk)
		}
		if !con.Framebuffer().Equal(sess.Encoder.FB) {
			n, _ := con.Framebuffer().DiffPixels(sess.Encoder.FB)
			return fmt.Errorf("%s: %s frame buffer diverges from its session's (%d pixels)", r.w.name, st.desk, n)
		}
		if _, dropped := con.Counters(); dropped != 0 {
			return fmt.Errorf("%s: %s dropped %d commands", r.w.name, st.desk, dropped)
		}
	}
	return nil
}

func (r *fabricRig) close() {
	for _, st := range r.seats {
		_ = r.dir.Terminate(st.user)
	}
	r.tap.Close()
	r.cancel()
}
