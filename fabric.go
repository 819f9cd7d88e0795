package slim

import (
	"cmp"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/telemetry"
)

// fabricMetrics is the in-process transport's live instrument set.
type fabricMetrics struct {
	delivered *obs.Counter
	dropped   *obs.Counter
	queue     *obs.Gauge
}

func newFabricMetrics(r *obs.Registry) *fabricMetrics {
	return &fabricMetrics{
		delivered: r.Counter("slim_fabric_delivered_total"),
		dropped:   r.Counter("slim_fabric_dropped_total"),
		queue:     r.Gauge("slim_fabric_queue_depth"),
	}
}

// Fabric is an in-process interconnection fabric: consoles and a server
// wired directly together, with the same message flow as the UDP transport
// but no sockets. It is the easiest way to embed a SLIM system in tests,
// examples, and simulations.
//
// Fabric implements Transport for the server side; console replies (Nacks,
// Pongs, bandwidth grants) are routed back automatically.
type Fabric struct {
	mu    sync.Mutex
	desks map[string]desk
	// list is the desks as first attached (Pump's polling order) and
	// servers their distinct servers in that order. Attach replaces both
	// and never writes into them, so Pump reads them without a copy.
	list    []desk
	servers []SessionHandler
	closed  bool
	// clock is the virtual time passed to console handlers (SetClock);
	// advance it if your test models decode delays.
	clock time.Duration

	// dropEvery, when positive, drops every Nth display datagram on the
	// server→console path — loss injection for exercising the protocol's
	// Nack recovery. Control traffic is never dropped.
	// phase is the drop cycle's position, restarted by SetLoss; delivered
	// and dropped count for the fabric's whole life.
	dropEvery int
	phase     int
	delivered int
	dropped   int

	// Delivery is flattened into a FIFO: a datagram sent while another is
	// being delivered queues behind it instead of recursing. Without this,
	// loss recovery triggered from inside a delivery would nest — a
	// recovery datagram's own loss spawning recovery — which a real
	// network (where transmission is asynchronous) never does.
	queue    fifo
	draining bool
	// replies are what consoles answered, handed to their servers once the
	// queue is empty and no server call the fabric made is running.
	replies fifo
	serving int

	metrics *fabricMetrics
	// capture is the wire tap (telemetry.Default's unless redirected by
	// SetCapture): both directions of every desk's traffic are recorded
	// at virtual time when the ring is enabled.
	capture *capture.Ring
}

type queuedDatagram struct {
	console string
	wire    []byte
}

// fifo is a queue of datagrams that keeps its backing array: pops move a
// head index, and once the consumed prefix is at least half the array the
// live tail moves to its front (nothing moves when the queue has emptied).
// A fabric in steady state queues without allocating, and senders that
// keep a drain from ever emptying the queue cannot grow it without bound.
type fifo struct {
	items []queuedDatagram
	head  int
}

func (q *fifo) len() int { return len(q.items) - q.head }

func (q *fifo) push(d queuedDatagram) { q.items = append(q.items, d) }

func (q *fifo) pop() queuedDatagram {
	d := q.items[q.head]
	q.items[q.head] = queuedDatagram{} // do not pin the wire
	if q.head++; q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:]) // do not pin the moved entries' wires twice
		q.items, q.head = q.items[:n], 0
	}
	return d
}

// desk is one console wired to its server side; Attach swaps either.
type desk struct {
	id  string
	con *Console
	srv SessionHandler
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		desks:   make(map[string]desk),
		metrics: newFabricMetrics(telemetry.Default.Registry),
		capture: telemetry.Default.Capture,
	}
}

// SetCapture redirects the fabric's wire tap to r (nil disables tapping
// entirely). Hermetic tests give each fabric its own ring the same way
// they give each server its own registry.
func (f *Fabric) SetCapture(r *capture.Ring) {
	f.mu.Lock()
	f.capture = r
	f.mu.Unlock()
}

// Attach wires a console to a server side — a *Server, or a *Broker
// fronting a shard fleet — under the given desk ID.
func (f *Fabric) Attach(id string, con *Console, srv SessionHandler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := desk{id, con, srv}
	f.desks[id] = d
	list := slices.Clone(f.list)
	if i := slices.IndexFunc(list, func(x desk) bool { return x.id == id }); i >= 0 {
		list[i] = d
	} else {
		list = append(list, d)
	}
	f.list, f.servers = list, nil
	for _, d := range list {
		if d.srv != nil && !slices.Contains(f.servers, d.srv) {
			f.servers = append(f.servers, d.srv)
		}
	}
}

// fabricAddr is the in-process transport's synthetic address.
type fabricAddr struct{}

func (fabricAddr) Network() string { return "fabric" }
func (fabricAddr) String() string  { return "fabric" }

// Addr implements Transport: the fabric has no network endpoint.
func (f *Fabric) Addr() net.Addr { return fabricAddr{} }

// Close implements Transport: detach every desk. Idempotent; a closed
// fabric rejects further sends.
func (f *Fabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	f.desks, f.list, f.servers = make(map[string]desk), nil, nil
	return nil
}

// SetClock sets the virtual time passed to console and server handlers.
func (f *Fabric) SetClock(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clock = d
}

// Now reports the fabric's virtual clock.
func (f *Fabric) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock
}

// Pump runs the periodic duties at the fabric's current virtual clock, as
// the UDP endpoints' loops do on the wall clock: every attached server
// with a paced debt waiting (FlowPending) is pumped, so sessions in debt
// repaint their next piece — a server that owes nothing is left alone, as
// the UDP daemon's loop leaves it — then every console is polled for what
// it owes: its STATUS, and the NACKs of holes its quiet line settles. Call
// it after SetClock when a test advances time.
func (f *Fabric) Pump() error {
	f.mu.Lock()
	clock, capRing, desks, servers := f.clock, f.capture, f.list, f.servers
	f.mu.Unlock()
	return f.serve(func() error {
		var firstErr error
		for _, srv := range servers {
			if srv.FlowPending() {
				_, _, err := srv.PumpFlows(clock)
				firstErr = cmp.Or(firstErr, err)
			}
		}
		for _, d := range desks {
			if d.con == nil || d.srv == nil {
				continue
			}
			for _, wire := range d.con.Poll(clock) {
				firstErr = cmp.Or(firstErr, uplink(capRing, d.srv, d.id, wire, clock))
			}
		}
		return firstErr
	})
}

// serve runs one call into a server, holding what its consoles answer
// meanwhile until the call returns. A server flushes a whole burst before
// it reads its socket; holding the replies keeps that order here, so the
// repaint a NACK of a burst's first datagrams draws follows the rest of
// the burst instead of overtaking it.
func (f *Fabric) serve(call func() error) error {
	f.mu.Lock()
	f.serving++
	f.mu.Unlock()
	err := call()
	f.mu.Lock()
	f.serving--
	idle := f.serving == 0 && !f.draining // else that call or drain takes the replies
	f.draining = f.draining || idle
	f.mu.Unlock()
	if idle {
		err = cmp.Or(err, f.drain())
	}
	return err
}

// uplink carries a console's datagram past the capture tap into its
// server, which may re-enter Send; that queues.
func uplink(capRing *capture.Ring, srv SessionHandler, id string, wire []byte, clock time.Duration) error {
	if capRing.Enabled() {
		capRing.Tap(capture.DirUp, id, -1, wire, clock)
	}
	return srv.HandleDatagram(id, wire, clock)
}

// SetLoss makes the fabric drop every Nth display datagram on the
// server→console path (0 disables). The SLIM protocol is designed to
// survive exactly this (§2.2); tests use it to exercise Nack recovery.
func (f *Fabric) SetLoss(dropEvery int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dropEvery = dropEvery
	f.phase = 0
}

// LossStats reports display datagrams delivered and dropped.
func (f *Fabric) LossStats() (delivered, dropped int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.delivered, f.dropped
}

// Send implements Transport: deliver a server datagram to the console and
// feed any console replies back to the server. Deliveries are serialized
// through a FIFO; a Send issued during another delivery (loss recovery,
// bandwidth grants) queues rather than nesting.
func (f *Fabric) Send(consoleID string, wire []byte) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("slim: fabric is closed")
	}
	d, ok := f.desks[consoleID]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("slim: no console %q on fabric", consoleID)
	}
	// Tap before loss injection: the capture point is the server's NIC,
	// and injected loss happens downstream on the modelled wire.
	if f.capture.Enabled() {
		f.capture.Tap(capture.DirDown, consoleID, -1, wire, f.clock)
	}
	if f.dropEvery > 0 && isDisplayDatagram(wire) {
		f.phase++
		if f.phase%f.dropEvery == 0 {
			f.dropped++
			f.metrics.dropped.Inc()
			f.mu.Unlock()
			// Outside f.mu: SessionOf takes the server lock, and console
			// replies already order s.mu → f.mu.
			recordWireLoss(d.srv, consoleID, wire)
			return nil // the datagram vanished on the wire
		}
		f.delivered++
	}
	if f.draining {
		// This Send returns before the active drain delivers the datagram,
		// and the server recycles wire buffers as soon as Send returns
		// (the Transport contract) — so a queued-behind-a-drain wire must
		// be copied to survive until delivery.
		wire = append([]byte(nil), wire...)
	}
	f.queue.push(queuedDatagram{console: consoleID, wire: wire})
	f.metrics.queue.Set(int64(f.queue.len()))
	if f.draining {
		f.mu.Unlock()
		return nil // the active drain will deliver it
	}
	f.draining = true
	f.mu.Unlock()
	return f.drain()
}

// drain delivers queued datagrams in order until the queue empties, then
// hands the servers what their consoles answered, unless a server call is
// running (serve): that takes them when it returns.
func (f *Fabric) drain() error {
	var firstErr error
	for {
		f.mu.Lock()
		var item queuedDatagram
		up := f.queue.len() == 0
		switch {
		case !up:
			item = f.queue.pop()
			f.metrics.queue.Set(int64(f.queue.len()))
		case f.replies.len() > 0 && f.serving == 0:
			item = f.replies.pop()
		default:
			f.draining = false
			f.mu.Unlock()
			return firstErr
		}
		d := f.desks[item.console]
		clock, capRing := f.clock, f.capture
		f.mu.Unlock()
		var err error
		switch {
		case up && d.srv != nil:
			err = uplink(capRing, d.srv, d.id, item.wire, clock)
		case !up && d.con != nil:
			var replies [][]byte
			replies, err = d.con.HandleDatagram(item.wire, clock)
			f.mu.Lock()
			for _, r := range replies {
				f.replies.push(queuedDatagram{console: item.console, wire: r})
			}
			f.mu.Unlock()
			f.metrics.delivered.Inc()
		}
		firstErr = cmp.Or(firstErr, err)
	}
}

// lookup fetches the console/server pair for a desk.
func (f *Fabric) lookup(id string) (*Console, SessionHandler, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.desks[id]
	if !ok {
		return nil, nil, fmt.Errorf("slim: no console %q on fabric", id)
	}
	return d.con, d.srv, nil
}

// Boot powers on a console: it sends Hello (with the card token, if any)
// to its server, which attaches or creates the user's session and repaints.
func (f *Fabric) Boot(id, cardToken string) error {
	con, srv, err := f.lookup(id)
	if err != nil {
		return err
	}
	hello := con.Hello()
	hello.CardToken = cardToken
	return f.serve(func() error { return srv.Handle(id, hello, f.Now()) })
}

// Desk is one fabric desk viewed as an input device: the InputSink for
// the console attached under an ID. The zero value is unusable; get one
// from Fabric.Desk.
type Desk struct {
	inputPort
}

// Desk returns the InputSink for a desk ID. Lookups happen per event, so
// a Desk stays valid across re-attachments.
func (f *Fabric) Desk(id string) Desk {
	deliver := func(msg Message) error {
		_, srv, err := f.lookup(id)
		if err != nil {
			return err
		}
		return f.serve(func() error { return srv.Handle(id, msg, f.Now()) })
	}
	return Desk{inputPort{
		deliver: deliver,
		card: func(token string) error {
			con, srv, err := f.lookup(id)
			if err != nil {
				return err
			}
			return f.serve(func() error { return srv.Handle(id, con.InsertCard(token), f.Now()) })
		},
	}}
}

// InsertCard presents a smart card at a desk, moving the owner's session
// there (§1.1's mobility model).
func (f *Fabric) InsertCard(id, token string) error { return f.Desk(id).InsertCard(token) }

// SendKey delivers a keystroke from a desk to its server.
func (f *Fabric) SendKey(id string, code uint16, down bool) error {
	return f.Desk(id).SendKey(code, down)
}

// SendPointer delivers a mouse update from a desk to its server.
func (f *Fabric) SendPointer(id string, x, y uint16, buttons uint8) error {
	return f.Desk(id).SendPointer(x, y, buttons)
}

// TypeString types a string at a desk (press + release per character).
func (f *Fabric) TypeString(id, s string) error { return f.Desk(id).TypeString(s) }

// Console returns the console attached at a desk.
func (f *Fabric) Console(id string) (*Console, error) {
	con, _, err := f.lookup(id)
	return con, err
}
