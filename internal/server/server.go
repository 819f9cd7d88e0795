// Package server implements the SLIM server-side system services of §2.4:
// the authentication manager that verifies desktop users, the session
// manager that redirects a user's display I/O to whichever console they are
// sitting at, and the remote device manager for console-attached
// peripherals. Sessions own a display encoder and an application; consoles
// are interchangeable sinks that can be swapped under a session at any
// time — that is the mobility model.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/console"
	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
	"slim/internal/wirebuf"
)

// Application is the program a session runs: it receives raw input events
// and responds with rendering operations. Real deployments ran X servers
// here; the library ships an echo terminal (Terminal) and the experiment
// harness drives synthetic applications.
type Application interface {
	// HandleKey processes one keystroke.
	HandleKey(ev protocol.KeyEvent) []core.Op
	// HandlePointer processes one mouse update.
	HandlePointer(ev protocol.PointerEvent) []core.Op
}

// Ticker is implemented by applications that render on their own clock —
// video players, animations — in addition to reacting to input. The
// server's Tick drives them.
type Ticker interface {
	// Tick renders any output due at model time now.
	Tick(now time.Duration) []core.Op
}

// Transport delivers server→console datagrams. Implementations include UDP
// (package slim) and in-memory pipes for tests and simulation.
//
// Send must not retain wire after it returns: the server recycles wire
// buffers through a pool the moment Send comes back, so an implementation
// that queues for later delivery must copy.
type Transport interface {
	Send(console string, wire []byte) error
}

// Errors returned by the server's managers.
var (
	ErrBadToken       = errors.New("server: unknown authentication token")
	ErrNoSession      = errors.New("server: console has no attached session")
	ErrUnknownConsole = errors.New("server: unknown console")
)

// AuthManager verifies user identities presented via smart cards (§1.1:
// "users can simply present a smart identification card at any desktop").
type AuthManager struct {
	mu     sync.Mutex
	tokens map[string]string // card token → user name
}

// NewAuthManager returns an empty registry.
func NewAuthManager() *AuthManager {
	return &AuthManager{tokens: make(map[string]string)}
}

// Register binds a card token to a user.
func (a *AuthManager) Register(token, user string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.tokens[token] = user
}

// Revoke removes a card token.
func (a *AuthManager) Revoke(token string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.tokens, token)
}

// Authenticate resolves a token to a user.
func (a *AuthManager) Authenticate(token string) (string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	user, ok := a.tokens[token]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrBadToken, token)
	}
	return user, nil
}

// Server ties the managers together and speaks the SLIM protocol to
// consoles.
type Server struct {
	Auth *AuthManager
	// NewApp builds the application for a fresh session.
	NewApp func(user string, w, h int) Application

	mu        sync.Mutex
	transport Transport
	// sessions is the session table in arrival order (created, imported
	// or loaded), the order every walk takes; byUser and each
	// consoleState.sess point into it.
	sessions []*Session
	byUser   map[string]*Session
	consoles map[string]*consoleState
	nextID   uint32

	// Live observability, fixed at construction: the telemetry kit
	// (telemetry.Default unless redirected by WithTelemetry) whose
	// registry metrics publish into and whose recorder and trackers
	// sessions resolve their handles in, the resolved server instruments,
	// and the shared encoder metric family attached to every session
	// encoder.
	tel        *telemetry.Kit
	metrics    *metrics
	encMetrics *core.EncoderMetrics
	// log receives session lifecycle events (WithLogger); nil = silent.
	log *slog.Logger

	// flowCfg tunes every session's send governor (WithFlowControl); the
	// zero value takes the flow package defaults.
	flowCfg flow.Config
	// flowPending is raised by a session's repay, settled by PumpFlows.
	flowPending atomic.Bool
}

type consoleState struct {
	w, h int
	// gen2 says whether an attachment here negotiates the gen-2 tile
	// cache: the console advertised CapCachePaint in its Hello. A gen-1
	// console keeps receiving the plain encoding, so a mixed fleet shares
	// one server.
	gen2 bool
	// sess is the session the console shows, nil on the login screen. It
	// is set exactly while that session's Console names this console.
	sess *Session
	// dropped is the console's drop counter at the last STATUS judged; an
	// increase means display state was lost and must be regenerated.
	dropped uint32
}

// heartbeat is the cadence of a console's idle STATUS: a session that has
// sent nothing for this long has nothing in flight.
const heartbeat = console.StatusInterval

// New returns a server sending through the given transport. Options are
// the only way to configure it: they run before any session exists, so
// every session resolves its instruments from the telemetry kit chosen
// here. The zero-option call keeps the defaults: telemetry.Default, and
// every session governed by the flow package's default bucket. A console
// that advertises CapCachePaint gets the gen-2 codec, any server alike.
func New(t Transport, newApp func(user string, w, h int) Application, opts ...Option) *Server {
	s := &Server{
		Auth:      NewAuthManager(),
		NewApp:    newApp,
		transport: t,
		byUser:    make(map[string]*Session),
		consoles:  make(map[string]*consoleState),
		tel:       telemetry.Default,
	}
	for _, o := range opts {
		o(s)
	}
	s.metrics = newMetrics(s.tel.Registry)
	s.encMetrics = core.NewEncoderMetrics(s.tel.Registry)
	return s
}

// FlowPending reports, without the server lock, whether an owed region
// waits for a PumpFlows: a call since the last one left a debt the tokens
// did not cover, or the last one reported pending. A wall-clock transport
// schedules none otherwise.
func (s *Server) FlowPending() bool { return s.flowPending.Load() }

// Telemetry reports the kit the server publishes into and its sessions
// record into.
func (s *Server) Telemetry() *telemetry.Kit { return s.tel }

// outbound is one queued server→console datagram. Sends are queued while
// the server lock is held and flushed after it is released, so a transport
// that delivers synchronously (the in-process fabric) can feed console
// replies straight back into Handle without deadlocking. Display commands
// carry their flight log and identity so flush can record the TX event at
// the actual handoff to the transport; control messages leave flog nil.
type outbound struct {
	console string
	wire    []byte
	flog    *flight.SessionLog
	seq     uint32
	cmd     protocol.MsgType
	// buf is the pooled buffer backing wire; flush releases it after the
	// transport hands the bytes off (Transport.Send must not retain).
	buf *wirebuf.Buf
}

// HandleDatagram processes one console→server datagram.
func (s *Server) HandleDatagram(console string, wire []byte, now time.Duration) error {
	_, msg, _, err := protocol.Decode(wire)
	if err != nil {
		return err
	}
	return s.Handle(console, msg, now)
}

// Handle processes one already-decoded console message.
//
// An input event that draws — its application returned at least one op —
// is timed from one reading of the wall clock when it arrives, which
// includes the application's own time and is its INPUT stamp, to one
// reading after the resulting commands are flushed, which ends the latency
// both input-to-paint histograms record and is the SLO's observation
// instant. On a synchronous transport (the in-process fabric) the console
// has painted by then, so the latency is true input-to-paint; on UDP it is
// input-to-wire, with console-side decode published separately by the
// console's own instruments. An input that draws nothing — a key release,
// a motion with no button held — opens no chain and is not timed.
func (s *Server) Handle(console string, msg protocol.Message, now time.Duration) error {
	s.mu.Lock()
	var arrived time.Duration
	var drew *telemetry.Session // the session an input drew in
	out := outbounds.Get().(*[]outbound)
	var herr error
	switch msg.(type) {
	case *protocol.KeyEvent, *protocol.PointerEvent:
		arrived = obs.Wall.Now()
		drew, herr = s.input(out, console, msg, arrived, now)
	default:
		herr = s.handleLocked(out, console, msg, now)
	}
	s.mu.Unlock()
	ferr := s.flush(*out)
	clear(*out) // the pool must not pin wires, logs or console names
	*out = (*out)[:0]
	outbounds.Put(out)
	if drew != nil {
		painted := obs.Wall.Now()
		latency := painted - arrived
		s.metrics.inputToPaint.Observe(latency)
		drew.InputToPaint.Observe(latency)
		drew.ObservePaint(painted, latency)
	}
	return cmp.Or(herr, ferr)
}

// input hands a KeyEvent or PointerEvent, which arrived at wall-clock
// reading arrived, to its session's application and renders what that
// returns, reporting the session's telemetry only if the application drew.
// A stranger's input is refused uncounted. Callers hold s.mu.
func (s *Server) input(out *[]outbound, console string, msg protocol.Message, arrived, now time.Duration) (*telemetry.Session, error) {
	sess, err := s.sessionFor(console)
	if !errors.Is(err, ErrUnknownConsole) {
		s.metrics.inputEvents.Inc()
	}
	if err != nil {
		return nil, err
	}
	var ops []core.Op
	var arg int64
	switch m := msg.(type) {
	case *protocol.KeyEvent:
		ops, arg = sess.App.HandleKey(*m), int64(m.Code)
	case *protocol.PointerEvent:
		ops, arg = sess.App.HandlePointer(*m), int64(m.X)<<16|int64(m.Y)
	}
	if len(ops) == 0 {
		return nil, sess.render(out, nil, now) // still pays what is owed
	}
	if sess.tel.Flight.Armed() {
		sess.tel.Flight.Input(arrived, msg.Type(), arg)
	}
	return sess.tel, sess.render(out, ops, now)
}

// BurstSender is the optional half of the Transport contract (asserted,
// the way net/http asserts http.Flusher): a transport whose cost is per
// datagram sent takes everything one Handle, PumpFlows or Tick produced
// for a console in one call, in order, and may coalesce it on its way to
// the wire (§5.4 frames). Like Send, SendBurst must not retain the wires.
type BurstSender interface {
	SendBurst(console string, wires [][]byte) error
}

// burstWires recycles the slice a burst's wires are projected into for
// SendBurst: flush runs outside the server lock, from several goroutines
// at once, and a 1280×1024 attach is a 5,120-entry burst.
var burstWires = sync.Pool{New: func() any { return new([][]byte) }}

// outbounds recycles the queue Handle's datagrams wait in between the
// locked dispatch and flush: Handle runs once per input event, and an
// echo's one command should not cost a slice.
var outbounds = sync.Pool{New: func() any { return new([]outbound) }}

// flush delivers queued datagrams outside the lock, recording the TX event
// for display commands at the moment they reach the transport and
// returning their pooled wire buffers once the transport is done with the
// bytes (the Transport contract forbids retention past Send). Consecutive
// datagrams for one console go to a BurstSender as one burst; a burst of
// one, and every datagram on a plain Transport, goes through Send.
func (s *Server) flush(out []outbound) error {
	burst, _ := s.transport.(BurstSender)
	for len(out) > 0 {
		n := 1
		for burst != nil && n < len(out) && out[n].console == out[0].console {
			n++
		}
		run := out[:n]
		out = out[n:]
		var wall time.Duration // one clock read per run; 0 until taken
		for i := range run {
			if o := &run[i]; o.flog.Armed() {
				if wall == 0 {
					wall = obs.Wall.Now()
				}
				o.flog.Tx(wall, o.seq, o.cmd, int64(len(o.wire)))
			}
		}
		var err error
		if n == 1 {
			err = s.transport.Send(run[0].console, run[0].wire)
		} else {
			wp := burstWires.Get().(*[][]byte)
			wires := (*wp)[:0]
			for i := range run {
				wires = append(wires, run[i].wire)
			}
			err = burst.SendBurst(run[0].console, wires)
			clear(wires) // the pool must not pin released wire buffers
			*wp = wires
			burstWires.Put(wp)
		}
		for i := range run {
			if o := &run[i]; o.buf != nil {
				o.buf.Release()
				o.buf = nil
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// handleLocked dispatches one message. Callers hold s.mu; all transmissions
// are queued on out.
func (s *Server) handleLocked(out *[]outbound, console string, msg protocol.Message, now time.Duration) error {
	// Only a Hello introduces a console; anything else from a stranger is
	// refused, so no source enters a transport's console table unheard.
	if _, hello := msg.(*protocol.Hello); !hello && s.consoles[console] == nil {
		return fmt.Errorf("%w: %q", ErrUnknownConsole, console)
	}
	switch m := msg.(type) {
	case *protocol.Hello:
		// A Hello means the console rebooted: whatever it was showing is
		// gone from it, card or no card.
		s.detachConsoleLocked(console)
		s.consoles[console] = &consoleState{w: int(m.Width), h: int(m.Height),
			gen2: m.Caps&protocol.CapCachePaint != 0}
		if m.CardToken != "" {
			if err := s.attachByToken(out, console, m.CardToken, now); err != nil {
				return err
			}
		}
		ack := &protocol.HelloAck{}
		if sess := s.consoles[console].sess; sess != nil {
			ack.SessionID = sess.ID
		}
		send(out, console, ack)
		return nil

	case *protocol.SessionConnect:
		return s.attachByToken(out, console, m.Token, now)

	case *protocol.Nack:
		sess, err := s.sessionFor(console)
		if err != nil {
			return err
		}
		if m.From > m.To || m.To > sess.Encoder.LastSeq() {
			// Nothing unissued can be missing, and an answer would be a
			// full-screen repaint for 28 bytes.
			s.metrics.nacksRejected.Inc()
			return nil
		}
		if sess.tel.Flight.Armed() {
			sess.tel.Flight.Nack(m.From, m.To)
		}
		sess.tel.Path.OnNack(m.From, m.To)
		sess.oweNack(*m)
		sess.repay(out, now)
		return nil

	case *protocol.BandwidthGrant:
		// Consoles arbitrate downstream bandwidth between sessions (§7); a
		// grant addresses a session and counts only from the console showing
		// it. A stale grant, or one for a terminated session, is dropped.
		if sess := s.consoles[console].sess; sess != nil && sess.ID == m.SessionID {
			sess.tel.Path.OnGrant()
			sess.gov.SetGrant(now, m.Bps)
			sess.repay(out, now)
		}
		return nil

	case *protocol.Status:
		return s.handleStatus(out, console, m, now)

	case *protocol.Pong:
		return nil // liveness; nothing to do

	case *protocol.Device:
		// Remote device manager: peripheral traffic is consumed here.
		return nil

	default:
		return fmt.Errorf("server: unexpected message %v from console %q", msg.Type(), console)
	}
}

// handleStatus feeds a console's STATUS to telemetry and pumps the
// session. It judges the STATUS only on a quiet line — nothing sent for a
// heartbeat, nothing owed — where it describes all the console will get.
// There a LastSeq of 0 (a reboot: the console holds nothing of the
// session, §2.2, not even which session it shows) attaches the session
// to it again; a grown decode-drop counter (overload, §4.3) owes the whole
// screen; a LastSeq trailing the last sequence sent is a lost tail, the
// one hole the console cannot settle itself, and owes what the sent log
// says it cost. A verdict keeps the line busy until it is paid and a
// heartbeat has passed, so none can storm. Callers hold s.mu.
func (s *Server) handleStatus(out *[]outbound, console string, st *protocol.Status, now time.Duration) error {
	cs := s.consoles[console]
	sess := cs.sess
	if sess == nil {
		return nil
	}
	if sess.tel.Flight.Armed() {
		sess.tel.Flight.Status(st.LastSeq, st.Dropped)
	}
	sess.tel.Path.OnStatus(st.LastSeq, st.Dropped)
	if now-sess.lastSend >= heartbeat && sess.damage.Empty() {
		lost := st.Dropped > cs.dropped
		cs.dropped = st.Dropped
		if s.log != nil && (lost || st.LastSeq == 0) {
			s.log.Warn("display state lost; recovery repaint", "console", console, "session", sess.ID, "drops", lost)
		}
		switch last := sess.Encoder.LastSeq(); {
		case st.LastSeq == 0:
			sess.attach(out, console, cs.gen2, now)
		case lost:
			sess.oweScreen()
		case st.LastSeq < last:
			sess.oweNack(protocol.Nack{From: st.LastSeq + 1, To: last})
		}
	}
	// No transport keeps a timer for a server with nothing owed.
	sess.pump(out, now)
	return nil
}

// attachByToken authenticates a card token and moves the user's session to
// the given console, creating the session on first use. Callers hold s.mu.
func (s *Server) attachByToken(out *[]outbound, console, token string, now time.Duration) error {
	user, err := s.Auth.Authenticate(token)
	if err != nil {
		s.metrics.authFailures.Inc()
		if s.log != nil {
			s.log.Warn("auth failure", "console", console)
		}
		return err
	}
	return s.attachUserLocked(out, console, user, now)
}

// Attach moves (or creates) a user's session onto a console without a
// credential check — the caller has already authenticated the user. This is
// the broker's redirect step: it authenticates tokens fleet-wide, picks a
// shard, and attaches by user. The console must have said Hello here first.
func (s *Server) Attach(console, user string, now time.Duration) error {
	s.mu.Lock()
	var out []outbound
	var err error
	if _, ok := s.consoles[console]; !ok {
		err = fmt.Errorf("%w: %q", ErrUnknownConsole, console)
	} else {
		err = s.attachUserLocked(&out, console, user, now)
	}
	s.mu.Unlock()
	return cmp.Or(err, s.flush(out))
}

// EvictConsole silently forgets a console: any session displayed there is
// detached (no SessionDetach on the wire — the broker is redirecting the
// console to another shard, whose SessionAttach supersedes it) and the
// geometry registration is dropped. No-op for unknown consoles.
func (s *Server) EvictConsole(console string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.detachConsoleLocked(console)
	delete(s.consoles, console)
}

// detachConsoleLocked silently detaches the session a console shows, if
// any: no SessionDetach, since the console already forgot it (a reboot) or
// another shard's SessionAttach supersedes it (an eviction). Callers hold
// s.mu.
func (s *Server) detachConsoleLocked(console string) {
	if cs, ok := s.consoles[console]; ok && cs.sess != nil && cs.sess.Console == console {
		cs.sess.detach()
	}
}

// attachUserLocked moves an already-authenticated user's session to the
// given console, creating the session on first use. Callers hold s.mu.
func (s *Server) attachUserLocked(out *[]outbound, console, user string, now time.Duration) error {
	cs := s.consoles[console]
	sess := s.byUser[user]
	reconnect := sess != nil
	if reconnect {
		s.metrics.reconnects.Inc()
		// Hotdesk move or reconnect: the console — and likely the network
		// path — changed. Rebase the estimator so stale in-flight samples
		// from the old path never poison the new one; smoothed SRTT/jitter
		// and the loss windows survive the cutover.
		sess.tel.Path.Rebase()
	} else {
		s.nextID++
		var err error
		if sess, err = s.newSessionLocked(s.nextID, user, cs.w, cs.h, nil); err != nil {
			return err
		}
	}
	s.metrics.attaches.Inc()
	if sess.Console != console {
		s.unbindLocked(out, sess)
	}
	// Evict whatever session the target console was showing.
	if other := cs.sess; other != nil && other != sess {
		other.detach()
	}
	cs.sess = sess
	if s.log != nil {
		s.log.Info("session attached",
			"user", user, "session", sess.ID, "console", console, "reconnect", reconnect)
	}
	sess.attach(out, console, cs.gen2, now)
	return nil
}

// Tick drives every session whose application renders on its own clock
// (Ticker). Call it periodically — the UDP transport runs it at the
// configured tick rate.
func (s *Server) Tick(now time.Duration) error {
	s.mu.Lock()
	var out []outbound
	var firstErr error
	for _, sess := range s.sessions {
		if tk, ok := sess.App.(Ticker); ok {
			firstErr = cmp.Or(firstErr, sess.render(&out, tk.Tick(now), now))
		}
	}
	s.mu.Unlock()
	return cmp.Or(firstErr, s.flush(out))
}

// Detach removes a session from its console (card pulled) without
// destroying it; state persists server side.
func (s *Server) Detach(user string) error {
	s.mu.Lock()
	sess, err := s.userSessionLocked(user)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	var out []outbound
	s.unbindLocked(&out, sess)
	if s.log != nil {
		s.log.Info("session detached", "user", user, "session", sess.ID)
	}
	s.mu.Unlock()
	return s.flush(out)
}

// Terminate destroys a user's session: the console (if any) is detached,
// the session state is discarded, and — unlike Detach — the session's
// observability residue is evicted too (see closeLocked). Without this, a
// server that outlives many logins accumulates one histogram and one
// 4096-slot ring per user forever.
func (s *Server) Terminate(user string) error {
	s.mu.Lock()
	sess, err := s.userSessionLocked(user)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	var out []outbound
	s.closeLocked(&out, sess, true)
	if s.log != nil {
		s.log.Info("session terminated", "user", user, "session", sess.ID)
	}
	s.mu.Unlock()
	return s.flush(out)
}

// userSessionLocked resolves a user's session. Callers hold s.mu.
func (s *Server) userSessionLocked(user string) (*Session, error) {
	sess, ok := s.byUser[user]
	if !ok {
		return nil, fmt.Errorf("server: no session for user %q", user)
	}
	return sess, nil
}

// sessionFor resolves the session attached to a console. Callers hold s.mu.
func (s *Server) sessionFor(console string) (*Session, error) {
	cs, ok := s.consoles[console]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownConsole, console)
	}
	if cs.sess == nil {
		return nil, ErrNoSession
	}
	return cs.sess, nil
}

// PumpFlows services every attached session at now: a session in debt to
// its console repaints the pieces its tokens cover. It reports the
// earliest instant a debt left behind can pay its next piece, so
// transports schedule the next pump instead of polling — the UDP endpoint
// reads its socket until then, simulations call from the virtual-time
// event loop.
func (s *Server) PumpFlows(now time.Duration) (next time.Duration, pending bool, err error) {
	s.mu.Lock()
	var out []outbound
	for _, sess := range s.sessions {
		if sess.Console == "" {
			continue
		}
		sess.pump(&out, now)
		if sess.damage.Empty() {
			continue
		}
		if t := sess.gov.ReadyAt(now, min(core.TileWire, sess.gov.Config().BurstBytes)); !pending || t < next {
			next, pending = t, true
		}
	}
	s.flowPending.Store(pending)
	s.mu.Unlock()
	return next, pending, s.flush(out)
}

// SessionOf reports the session currently owning a console (nil if none).
func (s *Server) SessionOf(console string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cs, ok := s.consoles[console]; ok {
		return cs.sess
	}
	return nil
}

// SessionByUser reports a user's session (nil if none).
func (s *Server) SessionByUser(user string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byUser[user]
}

// Owed reports the rects a user's session owes its console — painted in
// its frame buffer and not yet encoded for the console — or nil if it owes
// nothing or has no session.
func (s *Server) Owed(user string) []protocol.Rect {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, err := s.userSessionLocked(user); err == nil && !sess.damage.Empty() {
		return sess.damage.Rects()
	}
	return nil
}
