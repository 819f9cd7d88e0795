package slim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
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
// network, loopback included.

// udpListener is the socket machinery shared by the single-server and
// broker UDP daemons: the serve loop demultiplexing console datagrams by
// source address, the Transport implementation routing sends back, and the
// flow pacer. The handler — one Server or a Broker — is set before the
// goroutines start.
type udpListener struct {
	handler SessionHandler

	conn      *net.UDPConn
	mu        sync.Mutex
	addrs     map[string]*net.UDPAddr
	closeOnce sync.Once
	closeErr  error
	closed    chan struct{}
	done      chan struct{} // closed when the serve goroutine has exited
	pacerDone chan struct{} // closed when the flow pacer has exited (flow only)
	start     time.Time     // shared epoch for serve and the flow pacer
	metrics   *udpMetrics
	// capture is the wire tap (telemetry.Default's): every datagram this
	// transport sends or receives is recorded when the ring is enabled.
	// The Enabled guard keeps the disabled path allocation- and
	// clock-read-free.
	capture *capture.Ring
}

// listenUDP binds the socket and builds the listener shell; the caller
// wires a handler and calls run.
func listenUDP(ctx context.Context, addr string) (*udpListener, error) {
	var lc net.ListenConfig
	pc, err := lc.ListenPacket(ctx, "udp", addr)
	if err != nil {
		return nil, fmt.Errorf("slim: listen %q: %w", addr, err)
	}
	conn, ok := pc.(*net.UDPConn)
	if !ok {
		pc.Close()
		return nil, fmt.Errorf("slim: listen %q: not a UDP socket", addr)
	}
	return &udpListener{
		conn:    conn,
		addrs:   make(map[string]*net.UDPAddr),
		closed:  make(chan struct{}),
		done:    make(chan struct{}),
		start:   time.Now(),
		metrics: newUDPMetrics(telemetry.Default.Registry, "slim_udp"),
		capture: telemetry.Default.Capture,
	}, nil
}

// run starts the serve loop (and the flow pacer when the handler paces)
// and ties the listener's lifetime to ctx.
func (s *udpListener) run(ctx context.Context) {
	go s.serve()
	if s.handler.FlowEnabled() {
		s.pacerDone = make(chan struct{})
		go s.pace()
	}
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
	l.handler = srv
	s := &UDPServer{Server: srv, udpListener: l}
	l.run(ctx)
	return s, nil
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
	l.handler = b
	u := &UDPBroker{Broker: b, udpListener: l}
	l.run(ctx)
	return u, nil
}

// Addr reports the bound UDP address.
func (s *udpListener) Addr() net.Addr { return s.conn.LocalAddr() }

// Close stops the daemon and waits for its goroutines to exit, so none
// outlives the listener even when Close races a blocked socket read
// (closing the socket unblocks ReadFromUDP with net.ErrClosed).
// Idempotent: concurrent and repeated calls all wait for shutdown.
func (s *udpListener) Close() error {
	s.closeOnce.Do(func() {
		close(s.closed)
		s.closeErr = s.conn.Close()
	})
	<-s.done
	if s.pacerDone != nil {
		<-s.pacerDone
	}
	return s.closeErr
}

// pace releases grant-paced flow traffic on the governor's schedule. It
// sleeps until the earliest queued datagram becomes sendable (or an idle
// poll interval when nothing is queued — new traffic releases inline on
// the Handle path, so idle polling only bounds deferred-retransmit
// latency).
func (s *udpListener) pace() {
	defer close(s.pacerDone)
	const idle = 20 * time.Millisecond
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-timer.C:
		}
		next, pending, _ := s.handler.PumpFlows(time.Since(s.start))
		wait := idle
		if pending {
			wait = next - time.Since(s.start)
			if wait < time.Millisecond {
				wait = time.Millisecond
			}
		}
		timer.Reset(wait)
	}
}

// Send implements Transport: route a datagram to a console by address.
func (s *udpListener) Send(consoleID string, wire []byte) error {
	s.mu.Lock()
	addr := s.addrs[consoleID]
	s.mu.Unlock()
	if addr == nil {
		return fmt.Errorf("slim: unknown console %q", consoleID)
	}
	t0 := time.Now()
	_, err := s.conn.WriteToUDP(wire, addr)
	s.metrics.sendSeconds.Observe(time.Since(t0))
	if err != nil {
		s.metrics.txErrors.Inc()
		// The command never made the wire: flight-record the loss so the
		// session's causal chain shows a TX with no RX and a DROP.
		if isDisplayDatagram(wire) && s.handler != nil {
			if sess := s.handler.SessionOf(consoleID); sess != nil && sess.Telemetry().Flight.Armed() {
				sess.Telemetry().Flight.Drop(binary.BigEndian.Uint32(wire[4:8]),
					protocol.MsgType(wire[3]), int64(len(wire)))
			}
		}
		return err
	}
	s.metrics.txDatagrams.Inc()
	s.metrics.txBytes.Add(int64(len(wire)))
	if s.capture.Enabled() {
		s.capture.Tap(capture.DirDown, consoleID, -1, wire, time.Since(s.start))
	}
	return nil
}

func (s *udpListener) serve() {
	defer close(s.done)
	buf := make([]byte, 64*1024)
	for {
		n, addr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.metrics.rxDatagrams.Inc()
		s.metrics.rxBytes.Add(int64(n))
		id := addr.String()
		if s.capture.Enabled() {
			s.capture.Tap(capture.DirUp, id, -1, buf[:n], time.Since(s.start))
		}
		s.mu.Lock()
		s.addrs[id] = addr
		s.mu.Unlock()
		// Per-console errors (bad datagrams, unauthenticated input) must
		// not kill the daemon; the protocol is loss tolerant by design.
		t0 := time.Now()
		_ = s.handler.HandleDatagram(id, buf[:n], time.Since(s.start))
		s.metrics.handleSeconds.Observe(time.Since(t0))
	}
}

// UDPConsole is a SLIM console attached over UDP. Its input methods
// (SendKey, SendPointer, TypeString, InsertCard) are the shared InputSink
// implementation over the console's socket.
type UDPConsole struct {
	Console *Console
	inputPort

	conn      *net.UDPConn
	closeOnce sync.Once
	closeErr  error
	closed    chan struct{}
	done      chan struct{} // closed when the serve goroutine has exited
	start     time.Time
	metrics   *udpMetrics

	// STATUS bookkeeping shared by the serve loop (immediate acks) and
	// the heartbeat goroutine (trailing acks + idle heartbeat).
	ackMu      sync.Mutex
	lastAckAt  time.Time
	ackApplied uint64
	ackDropped uint64
}

// DialConsoleContext connects a console to a UDP server under ctx: the
// dial honors the context's deadline, and cancelling it afterwards closes
// the console. The console presents tok as its smart card (NoToken boots
// to the login screen) and serves incoming display traffic on a background
// goroutine until Close.
func DialConsoleContext(ctx context.Context, serverAddr string, cfg ConsoleConfig, tok Token) (*UDPConsole, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "udp", serverAddr)
	if err != nil {
		return nil, fmt.Errorf("slim: dial %q: %w", serverAddr, err)
	}
	conn, ok := nc.(*net.UDPConn)
	if !ok {
		nc.Close()
		return nil, fmt.Errorf("slim: dial %q: not a UDP socket", serverAddr)
	}
	con, err := NewConsole(cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &UDPConsole{
		Console: con,
		conn:    conn,
		closed:  make(chan struct{}),
		done:    make(chan struct{}),
		start:   time.Now(),
		metrics: newUDPMetrics(telemetry.Default.Registry, "slim_udp_console"),
	}
	c.inputPort = inputPort{
		deliver: c.send,
		card:    func(token string) error { return c.send(c.Console.InsertCard(token)) },
	}
	hello := con.Hello()
	hello.CardToken = tok.String()
	if err := c.send(hello); err != nil {
		conn.Close()
		return nil, err
	}
	go c.serve()
	go c.heartbeat()
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				c.Close()
			case <-c.closed:
			}
		}()
	}
	return c, nil
}

// Close detaches the console and waits for its serve goroutine to exit.
// The console's soft state is discarded; the session lives on at the
// server. Idempotent: concurrent and repeated calls all wait for
// shutdown.
func (c *UDPConsole) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.closeErr = c.conn.Close()
	})
	<-c.done
	return c.closeErr
}

func (c *UDPConsole) send(msg Message) error {
	wire := protocol.Encode(nil, 0, msg)
	_, err := c.conn.Write(wire)
	if err != nil {
		c.metrics.txErrors.Inc()
		return err
	}
	c.metrics.txDatagrams.Inc()
	c.metrics.txBytes.Add(int64(len(wire)))
	return nil
}

// StatusInterval is the UDP console's idle heartbeat cadence. STATUS
// carries the applied sequence and cumulative drop count the server's
// recovery path and passive path estimators (internal/obs/netqual) both
// consume; the steady cadence is itself the signal jitter estimation
// measures.
const StatusInterval = 500 * time.Millisecond

// StatusAckDelay bounds how soon after applying display traffic the
// console acknowledges it with a STATUS. Acking on receipt (rather than
// waiting for the idle heartbeat) is what keeps passively-derived RTT
// samples close to the true path RTT — a timer-delayed ack would inflate
// them by up to StatusInterval.
const StatusAckDelay = 20 * time.Millisecond

// maybeAck sends a STATUS when the console's applied/dropped counters
// moved since the last STATUS went out (rate-limited to one per
// StatusAckDelay), or unconditionally when force is set (the idle
// heartbeat). Reports whether a STATUS was sent.
func (c *UDPConsole) maybeAck(force bool) bool {
	c.ackMu.Lock()
	applied, dropped := c.Console.Counters()
	moved := applied != c.ackApplied || dropped != c.ackDropped
	now := time.Now()
	if !force && (!moved || now.Sub(c.lastAckAt) < StatusAckDelay) {
		c.ackMu.Unlock()
		return false
	}
	c.ackApplied, c.ackDropped = applied, dropped
	c.lastAckAt = now
	wire := c.Console.StatusWire()
	c.ackMu.Unlock()
	if _, err := c.conn.Write(wire); err != nil {
		c.metrics.txErrors.Inc()
		return false
	}
	c.metrics.txDatagrams.Inc()
	c.metrics.txBytes.Add(int64(len(wire)))
	return true
}

// heartbeat ticks at the ack delay so a display burst's tail is
// acknowledged promptly even when the serve loop's rate limit suppressed
// the in-burst acks, and forces an idle STATUS every StatusInterval so
// the server sees liveness (and path estimators a steady cadence) from a
// quiet console.
func (c *UDPConsole) heartbeat() {
	t := time.NewTicker(StatusAckDelay)
	defer t.Stop()
	ticksPerIdle := int(StatusInterval / StatusAckDelay)
	idle := 0
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			idle++
			if c.maybeAck(idle >= ticksPerIdle) {
				idle = 0
			}
		}
	}
}

func (c *UDPConsole) serve() {
	defer close(c.done)
	buf := make([]byte, 64*1024)
	for {
		n, err := c.conn.Read(buf)
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		c.metrics.rxDatagrams.Inc()
		c.metrics.rxBytes.Add(int64(n))
		t0 := time.Now()
		replies, err := c.Console.HandleDatagram(buf[:n], time.Since(c.start))
		c.metrics.handleSeconds.Observe(time.Since(t0))
		if err != nil {
			continue // malformed datagram: drop, per the loss-tolerant design
		}
		// Delayed-ack STATUS: when this datagram moved the applied or
		// dropped counters, acknowledge promptly (rate-limited to one ack
		// per StatusAckDelay) instead of waiting for the idle heartbeat.
		c.maybeAck(false)
		for _, r := range replies {
			if _, err := c.conn.Write(r); err != nil {
				return
			}
			c.metrics.txDatagrams.Inc()
			c.metrics.txBytes.Add(int64(len(r)))
		}
	}
}
