package slim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// udpMetrics is the live instrument set for one side of the UDP transport
// (the daemon and the console client share the shape; the console prefixes
// its names). Resolved once at socket setup; the datagram loops pay only
// atomics.
type udpMetrics struct {
	rxDatagrams *obs.Counter
	rxBytes     *obs.Counter
	txDatagrams *obs.Counter
	txBytes     *obs.Counter
	txErrors    *obs.Counter
	// sendSeconds is socket write latency; handleSeconds is the full
	// received-datagram processing time (decode + dispatch + replies).
	sendSeconds   *obs.Histogram
	handleSeconds *obs.Histogram
}

func newUDPMetrics(r *obs.Registry, prefix string) *udpMetrics {
	return &udpMetrics{
		rxDatagrams:   r.Counter(prefix + "_rx_datagrams_total"),
		rxBytes:       r.Counter(prefix + "_rx_bytes_total"),
		txDatagrams:   r.Counter(prefix + "_tx_datagrams_total"),
		txBytes:       r.Counter(prefix + "_tx_bytes_total"),
		txErrors:      r.Counter(prefix + "_tx_errors_total"),
		sendSeconds:   r.Histogram(prefix + "_send_seconds"),
		handleSeconds: r.Histogram(prefix + "_handle_seconds"),
	}
}

// The Sun Ray 1 carried the SLIM protocol over UDP/IP on a dedicated
// switched Ethernet (§2.2). This file is the real-socket transport: a
// server daemon and a console client that interoperate over any UDP
// network, loopback included. Every now it hands to the server side, the
// console and the capture tap is obs.Wall's, so wire capture, governor
// token arithmetic and flight events share one timeline.

// udpSocket is what the daemon and the console client have in common: the
// socket, its counted reads and writes, and the one goroutine that runs it.
type udpSocket struct {
	conn      *net.UDPConn
	metrics   *udpMetrics
	closeOnce sync.Once
	closeErr  error
	done      chan struct{} // closed when loop returns
	kicks     atomic.Uint32 // see kick
}

// newUDPSocket wraps what a net listen or dial call returned; its metrics
// publish under prefix.
func newUDPSocket(prefix string, c io.Closer, err error) (*udpSocket, error) {
	if err != nil {
		return nil, err
	}
	conn, ok := c.(*net.UDPConn)
	if !ok {
		c.Close()
		return nil, errors.New("not a UDP socket")
	}
	return &udpSocket{
		conn:    conn,
		metrics: newUDPMetrics(telemetry.Default.Registry, prefix),
		done:    make(chan struct{}),
	}, nil
}

// Close shuts the socket and waits for its goroutine to exit (closing
// unblocks a blocked read with net.ErrClosed). A console's soft state is
// discarded; its session lives on at the server. Idempotent: concurrent
// and repeated calls all wait for shutdown.
func (s *udpSocket) Close() error {
	s.shut()
	<-s.done
	return s.closeErr
}

// shut closes the socket without waiting for the loop.
func (s *udpSocket) shut() { s.closeOnce.Do(func() { s.closeErr = s.conn.Close() }) }

// loop is the endpoint, on the socket's one goroutine: due runs what the
// clock owes at now and says when it next owes something, the socket is
// read until then (ok false: until a datagram or a kick), and a datagram
// goes to handle with its source. Both send from here, so an endpoint's
// datagrams reach the socket in the order its calls produced them. Bad
// datagrams must not stop the loop: the protocol is loss tolerant by
// design. Only shut closes the socket, as cancelling ctx does.
func (s *udpSocket) loop(ctx context.Context, handle func(wire []byte, from netip.AddrPort), due func(now time.Duration) (next time.Duration, ok bool)) {
	defer close(s.done)
	defer context.AfterFunc(ctx, s.shut)()
	buf := make([]byte, 64*1024)
	for {
		kicks := s.kicks.Load()
		var deadline time.Time
		if next, ok := due(obs.Wall.Now()); ok {
			deadline = time.Now().Add(next - obs.Wall.Now())
		}
		_ = s.conn.SetReadDeadline(deadline) // fails on a closed socket, as the read will
		if s.kicks.Load() != kicks {
			continue // the deadline just set may have replaced a kick's
		}
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue // the deadline, or an error that is one datagram's
		}
		s.metrics.rxDatagrams.Inc()
		s.metrics.rxBytes.Add(int64(n))
		t0 := time.Now()
		handle(buf[:n], from)
		s.metrics.handleSeconds.Observe(time.Since(t0))
	}
}

// kick makes the loop ask due again, after a change to what it will answer.
// The loop setting its own deadline meanwhile loses no kick: one counted
// before it rechecks the counter sends it round, one after sets the later
// deadline and the read times out.
func (s *udpSocket) kick() {
	s.kicks.Add(1)
	_ = s.conn.SetReadDeadline(time.Now()) // a closed socket has no loop to wake
}

// write sends one datagram — to the connected peer when to is zero.
func (s *udpSocket) write(wire []byte, to netip.AddrPort) (err error) {
	t0 := time.Now()
	if to.IsValid() {
		_, err = s.conn.WriteToUDPAddrPort(wire, to)
	} else {
		_, err = s.conn.Write(wire)
	}
	s.metrics.sendSeconds.Observe(time.Since(t0))
	if err != nil {
		s.metrics.txErrors.Inc()
		return err
	}
	s.metrics.txDatagrams.Inc()
	s.metrics.txBytes.Add(int64(len(wire)))
	return nil
}

// udpListener is the daemon side: console datagrams demultiplexed by
// source address into the handler (one Server or a Broker), the Transport
// routing sends back, and the clock of its app tick and flow pump (due).
type udpListener struct {
	*udpSocket
	handler SessionHandler
	// consoles maps each source the handler accepted a datagram from to its
	// console ID; newcomer is the last it has not, routable until the next.
	addrMu   sync.Mutex
	consoles map[netip.AddrPort]string
	newcomer netip.AddrPort
	// capture is the wire tap (telemetry.Default's). The Enabled guard
	// keeps the disabled path allocation- and clock-read-free.
	capture *capture.Ring

	tickEvery          atomic.Int64  // ns; 0 until StartTicker
	nextTick, nextPump time.Duration // the loop's own
}

// listenUDP binds the socket; the caller builds a handler and calls run.
func listenUDP(ctx context.Context, addr string) (*udpListener, error) {
	var lc net.ListenConfig
	pc, err := lc.ListenPacket(ctx, "udp", addr)
	sock, err := newUDPSocket("slim_udp", pc, err)
	if err != nil {
		return nil, fmt.Errorf("slim: listen %q: %w", addr, err)
	}
	return &udpListener{udpSocket: sock, consoles: make(map[netip.AddrPort]string),
		capture: telemetry.Default.Capture}, nil
}

// Addr reports the bound UDP address.
func (s *udpListener) Addr() net.Addr { return s.conn.LocalAddr() }

// run starts the loop over h.
func (s *udpListener) run(ctx context.Context, h SessionHandler) {
	s.handler = h
	go s.loop(ctx, s.receive, s.due)
}

// UDPServer runs a SLIM server on a UDP socket. Console datagrams are
// demultiplexed by source address; each distinct address is a console.
type UDPServer struct {
	Server *Server
	*udpListener
}

// ListenAndServeContext binds a UDP address under ctx and starts a SLIM
// server on it. Cancelling ctx closes the server, so callers can tie the
// daemon's lifetime to a signal context. Options configure flow control
// and observability (see NewServer). The daemon is one goroutine: it reads
// the socket until grant-paced traffic or an application tick falls due.
func ListenAndServeContext(ctx context.Context, addr string, newApp AppFactory, opts ...ServerOption) (*UDPServer, error) {
	l, err := listenUDP(ctx, addr)
	if err != nil {
		return nil, err
	}
	srv := NewServer(l, newApp, opts...)
	l.run(ctx, srv)
	return &UDPServer{Server: srv, udpListener: l}, nil
}

// UDPBroker runs a session-broker fleet on one UDP socket: every shard
// sends through the same transport, and the broker routes each console's
// datagrams to the shard hosting its session.
type UDPBroker struct {
	Broker *Broker
	*udpListener
}

// ListenAndServeBroker binds a UDP address and starts a session-broker
// fleet on it. Cancelling ctx closes the listener and the broker. Options
// are inherited by every shard (see NewBroker).
func ListenAndServeBroker(ctx context.Context, addr string, cfg BrokerConfig, newApp AppFactory, opts ...ServerOption) (*UDPBroker, error) {
	l, err := listenUDP(ctx, addr)
	if err != nil {
		return nil, err
	}
	b, err := NewBroker(ctx, cfg, l, newApp, opts...)
	if err != nil {
		l.conn.Close()
		return nil, err
	}
	l.run(ctx, b)
	return &UDPBroker{Broker: b, udpListener: l}, nil
}

// StartTicker drives Ticker applications (video players) — on every shard,
// behind a broker — at the given rate until the listener is closed.
func (s *udpListener) StartTicker(fps float64) {
	if fps <= 0 {
		fps = 30
	}
	s.tickEvery.Store(int64(float64(time.Second) / fps))
	s.kick()
}

// due is the daemon's clock, making the handler calls Fabric.Pump makes on
// a virtual one: Tick when its period has elapsed, then PumpFlows when the
// instant the last one named has come — with none named, as soon as a call
// has left a paced debt behind, to learn its instant. With nothing owed
// no pump is scheduled: what else PumpFlows does, a console's heartbeat
// does for its session (Server.handleStatus). Either call, however long it
// took, is followed by half a period or a millisecond of reading the socket.
func (s *udpListener) due(now time.Duration) (next time.Duration, ok bool) {
	if every := time.Duration(s.tickEvery.Load()); every > 0 {
		if now >= s.nextTick {
			_ = s.handler.Tick(now) // per-session errors must not stop the clock
			s.nextTick = max(s.nextTick+every, obs.Wall.Now()+every/2)
		}
		next, ok = s.nextTick, true
	}
	if s.handler.FlowPending() && now >= s.nextPump {
		t, _, _ := s.handler.PumpFlows(now) // a console's send error is its own
		s.nextPump = max(t, obs.Wall.Now()+time.Millisecond)
	}
	if s.handler.FlowPending() && (!ok || s.nextPump < next) {
		next, ok = s.nextPump, true
	}
	return next, ok
}

// Send implements Transport: route a datagram to a console by address.
func (s *udpListener) Send(consoleID string, wire []byte) error {
	addr, err := s.route(consoleID)
	if err != nil {
		return err
	}
	return s.sendTo(consoleID, addr, wire)
}

// SendBurst implements the server's BurstSender: everything one server
// call produced for a console leaves in as few datagrams as hold it, the
// small commands packed into §5.4 frames (packAndSend). What a datagram
// costs — the system call, the socket-buffer slot at both ends, the
// reader's wake-up — is paid here, so here is where commands are packed;
// and because the server hands over a whole burst, nothing is held back
// for a later one: no pending frame, no lock, no flush point.
func (s *udpListener) SendBurst(consoleID string, wires [][]byte) error {
	addr, err := s.route(consoleID)
	if err != nil {
		return err
	}
	return packAndSend(wires, func(datagram []byte, _ int) error {
		return s.sendTo(consoleID, addr, datagram)
	})
}

// route resolves a console ID to the address receive printed it from.
func (s *udpListener) route(consoleID string) (netip.AddrPort, error) {
	addr, err := netip.ParseAddrPort(consoleID)
	s.addrMu.Lock()
	defer s.addrMu.Unlock()
	if _, ok := s.consoles[addr]; err != nil || !ok && addr != s.newcomer {
		return addr, fmt.Errorf("slim: unknown console %q", consoleID)
	}
	return addr, nil
}

// sendTo writes one datagram to a console: a failed write is
// flight-recorded as the loss of every command in it, a successful one is
// tapped for the wire capture as it left.
func (s *udpListener) sendTo(consoleID string, addr netip.AddrPort, wire []byte) error {
	if err := s.write(wire, addr); err != nil {
		recordWireLoss(s.handler, consoleID, wire)
		return err
	}
	if s.capture.Enabled() {
		s.capture.Tap(capture.DirDown, consoleID, -1, wire, obs.Wall.Now())
	}
	return nil
}

// receive hands one console datagram to the handler; a bad one is the
// console's problem. A source enters the table once the handler accepts a
// datagram from it (anyone can send one); as newcomer it gets a Hello's reply.
func (s *udpListener) receive(wire []byte, from netip.AddrPort) {
	// A dual-stack socket reports an IPv4 peer as IPv4-mapped IPv6.
	from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	now := obs.Wall.Now()
	s.addrMu.Lock()
	id, known := s.consoles[from]
	if !known {
		id, s.newcomer = from.String(), from
	}
	s.addrMu.Unlock()
	if s.capture.Enabled() {
		s.capture.Tap(capture.DirUp, id, -1, wire, now)
	}
	if err := s.handler.HandleDatagram(id, wire, now); err == nil && !known {
		s.addrMu.Lock()
		s.consoles[from] = id
		s.addrMu.Unlock()
	}
}

// UDPConsole is a SLIM console attached over UDP: it writes back whatever
// Console.HandleDatagram replies to each datagram read, and every
// StatusAckDelay whatever Console.Poll returns. Its input methods (SendKey,
// SendPointer, TypeString, InsertCard) are the shared InputSink
// implementation over the console's socket.
type UDPConsole struct {
	Console *Console
	inputPort
	*udpSocket
}

// DialConsoleContext connects a console to a UDP server under ctx: the
// dial honors the context's deadline, and cancelling it afterwards closes
// the console. The console presents tok as its smart card (NoToken boots
// to the login screen) and serves incoming display traffic on a background
// goroutine until Close.
func DialConsoleContext(ctx context.Context, serverAddr string, cfg ConsoleConfig, tok Token) (*UDPConsole, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "udp", serverAddr)
	sock, err := newUDPSocket("slim_udp_console", nc, err)
	if err != nil {
		return nil, fmt.Errorf("slim: dial %q: %w", serverAddr, err)
	}
	con, err := NewConsole(cfg)
	if err != nil {
		sock.conn.Close()
		return nil, err
	}
	c := &UDPConsole{Console: con, udpSocket: sock}
	c.inputPort = inputPort{
		deliver: c.send,
		card:    func(token string) error { return c.send(con.InsertCard(token)) },
	}
	hello := con.Hello()
	hello.CardToken = tok.String()
	if err := c.send(hello); err != nil {
		sock.conn.Close()
		return nil, err
	}
	var nextPoll time.Duration
	go c.loop(ctx, func(wire []byte, _ netip.AddrPort) {
		// A malformed datagram is dropped, per the loss-tolerant design.
		replies, _ := con.HandleDatagram(wire, obs.Wall.Now())
		for _, r := range replies {
			if c.write(r, netip.AddrPort{}) != nil {
				return
			}
		}
	}, func(now time.Duration) (time.Duration, bool) {
		if now >= nextPoll {
			for _, wire := range con.Poll(now) {
				_ = c.write(wire, netip.AddrPort{}) // a lost STATUS or NACK is followed by the next
			}
			nextPoll = now + StatusAckDelay
		}
		return nextPoll, true
	})
	return c, nil
}

func (c *UDPConsole) send(msg Message) error {
	return c.write(protocol.Encode(nil, 0, msg), netip.AddrPort{})
}
