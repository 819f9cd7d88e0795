package slim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
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
// queue times and flight events share one timeline.

// udpSocket is what the daemon and the console client have in common: the
// socket, its counted reads and writes, and the goroutines Close joins.
type udpSocket struct {
	conn      *net.UDPConn
	metrics   *udpMetrics
	mu        sync.Mutex // guards closed against spawn
	closeOnce sync.Once
	closeErr  error
	closed    chan struct{}
	wg        sync.WaitGroup
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
		closed:  make(chan struct{}),
	}, nil
}

// Close shuts the socket and waits for its goroutines to exit (closing
// unblocks a blocked read with net.ErrClosed). A console's soft state is
// discarded; its session lives on at the server. Idempotent: concurrent
// and repeated calls all wait for shutdown.
func (s *udpSocket) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		close(s.closed)
		s.mu.Unlock()
		s.closeErr = s.conn.Close()
	})
	s.wg.Wait()
	return s.closeErr
}

// spawn runs f on a goroutine Close joins; a closed socket starts nothing.
func (s *udpSocket) spawn(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return
	default:
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// every runs f each d until the socket closes.
func (s *udpSocket) every(d time.Duration, f func()) {
	s.spawn(func() {
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-s.closed:
				return
			case <-t.C:
				f()
			}
		}
	})
}

// serve starts the read loop, handing each datagram and its source to
// handle, and ties the socket's lifetime to ctx. Bad datagrams must not
// stop the loop; the protocol is loss tolerant by design.
func (s *udpSocket) serve(ctx context.Context, handle func(wire []byte, from *net.UDPAddr)) {
	s.spawn(func() {
		buf := make([]byte, 64*1024)
		for {
			n, from, err := s.conn.ReadFromUDP(buf)
			if errors.Is(err, net.ErrClosed) {
				return // Close is the only thing that closes the socket
			}
			if err != nil {
				continue
			}
			s.metrics.rxDatagrams.Inc()
			s.metrics.rxBytes.Add(int64(n))
			t0 := time.Now()
			handle(buf[:n], from)
			s.metrics.handleSeconds.Observe(time.Since(t0))
		}
	})
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				s.Close()
			case <-s.closed:
			}
		}()
	}
}

// write sends one datagram — to the connected peer when to is nil.
func (s *udpSocket) write(wire []byte, to *net.UDPAddr) (err error) {
	t0 := time.Now()
	if to == nil {
		_, err = s.conn.Write(wire)
	} else {
		_, err = s.conn.WriteToUDP(wire, to)
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
// routing sends back, the flow pacer and the app ticker.
type udpListener struct {
	*udpSocket
	handler SessionHandler
	addrMu  sync.Mutex
	addrs   map[string]*net.UDPAddr
	// capture is the wire tap (telemetry.Default's). The Enabled guard
	// keeps the disabled path allocation- and clock-read-free.
	capture *capture.Ring
}

// listenUDP binds the socket; the caller builds a handler and calls run.
func listenUDP(ctx context.Context, addr string) (*udpListener, error) {
	var lc net.ListenConfig
	pc, err := lc.ListenPacket(ctx, "udp", addr)
	sock, err := newUDPSocket("slim_udp", pc, err)
	if err != nil {
		return nil, fmt.Errorf("slim: listen %q: %w", addr, err)
	}
	return &udpListener{udpSocket: sock, addrs: make(map[string]*net.UDPAddr),
		capture: telemetry.Default.Capture}, nil
}

// Addr reports the bound UDP address.
func (s *udpListener) Addr() net.Addr { return s.conn.LocalAddr() }

// run starts the serve loop (and the flow pacer when the handler paces).
func (s *udpListener) run(ctx context.Context, h SessionHandler) {
	s.handler = h
	s.serve(ctx, s.receive)
	if s.handler.FlowEnabled() {
		s.spawn(s.pace)
	}
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
// and observability (see NewServer); with flow control enabled the server
// runs a pacer goroutine that releases grant-paced traffic on schedule.
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
	// Per-session errors must not stop the clock.
	s.every(time.Duration(float64(time.Second)/fps), func() { _ = s.handler.Tick(obs.Wall.Now()) })
}

// pace releases grant-paced flow traffic on the governor's schedule. It
// sleeps until the earliest queued datagram becomes sendable (or an idle
// poll interval when nothing is queued — new traffic releases inline on
// the Handle path, so idle polling only bounds how long a session's debt
// waits once that path has emptied the queue ahead of it, and how stale an
// announced demand gets).
func (s *udpListener) pace() {
	const idle = 20 * time.Millisecond
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-timer.C:
		}
		next, pending, _ := s.handler.PumpFlows(obs.Wall.Now())
		wait := idle
		if pending {
			wait = max(next-obs.Wall.Now(), time.Millisecond)
		}
		timer.Reset(wait)
	}
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

func (s *udpListener) route(consoleID string) (*net.UDPAddr, error) {
	s.addrMu.Lock()
	addr := s.addrs[consoleID]
	s.addrMu.Unlock()
	if addr == nil {
		return nil, fmt.Errorf("slim: unknown console %q", consoleID)
	}
	return addr, nil
}

// sendTo writes one datagram to a console: a failed write is
// flight-recorded as the loss of every command in it, a successful one is
// tapped for the wire capture as it left.
func (s *udpListener) sendTo(consoleID string, addr *net.UDPAddr, wire []byte) error {
	if err := s.write(wire, addr); err != nil {
		recordWireLoss(s.handler, consoleID, wire)
		return err
	}
	if s.capture.Enabled() {
		s.capture.Tap(capture.DirDown, consoleID, -1, wire, obs.Wall.Now())
	}
	return nil
}

// receive hands one console datagram to the handler. Per-console errors
// (bad datagrams, unauthenticated input) are the console's problem.
func (s *udpListener) receive(wire []byte, from *net.UDPAddr) {
	id, now := from.String(), obs.Wall.Now()
	if s.capture.Enabled() {
		s.capture.Tap(capture.DirUp, id, -1, wire, now)
	}
	s.addrMu.Lock()
	s.addrs[id] = from
	s.addrMu.Unlock()
	_ = s.handler.HandleDatagram(id, wire, now)
}

// UDPConsole is a SLIM console attached over UDP: it writes back whatever
// Console.HandleDatagram replies to each datagram read, and on a timer
// whatever Console.Poll returns. Its input methods (SendKey, SendPointer,
// TypeString, InsertCard) are the shared InputSink implementation over the
// console's socket.
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
	c.serve(ctx, func(wire []byte, _ *net.UDPAddr) {
		// A malformed datagram is dropped, per the loss-tolerant design.
		replies, _ := con.HandleDatagram(wire, obs.Wall.Now())
		for _, r := range replies {
			if c.write(r, nil) != nil {
				return
			}
		}
	})
	c.every(StatusAckDelay, func() {
		if wire := con.Poll(obs.Wall.Now()); wire != nil {
			_ = c.write(wire, nil)
		}
	})
	return c, nil
}

func (c *UDPConsole) send(msg Message) error {
	return c.write(protocol.Encode(nil, 0, msg), nil)
}
