package server

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/flow"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
	"slim/internal/wirebuf"
)

// Session is one user's persistent desktop: the authoritative frame buffer
// (inside the encoder), the running application, and the console it is
// currently displayed on (if any). What it keeps for that console is the
// frame buffer, the owed region, the encoder's sent log and sequence
// number, and when it last sent. The Server keeps its sessions in one
// list in arrival order; everything a session owns is built in
// newSessionLocked, frozen by snapshot, and released in closeLocked —
// nowhere else. All of it is guarded by Server.mu.
type Session struct {
	ID      uint32
	User    string
	Encoder *core.Encoder
	App     Application
	Console string // attached console ID, "" if detached

	// tel is the session's handle onto the server's telemetry kit: its
	// labeled series, flight-recorder ring, SLO state and path estimator,
	// resolved together in newSessionLocked and released together in
	// closeLocked.
	tel *telemetry.Session
	// gov paces display traffic to the console's bandwidth grant (§7).
	gov *flow.Governor
	// flowPending is the server's flag (see repay).
	flowPending *atomic.Bool
	// demandBps is the bandwidth demand last announced to the console's §7
	// allocator; pump re-announces when the governor's measured demand
	// drifts from it by more than 1/8.
	demandBps uint64

	// damage is what the session owes its console: the pixels the console
	// is known or feared not to hold. Everything that finds a loss — a
	// NACK, a STATUS verdict, an attach — and every paint the governor
	// could not admit when it was drawn only adds to it, and repay alone
	// sends it, from the frame buffer as it is when the bytes may leave. A
	// region is bounded by the screen and union is idempotent, so no storm
	// of triggers owes more than one repaint. A detached session owes
	// nothing.
	damage fb.Region
	// lastSend is the transport time a display command last left for the
	// console. A STATUS is judged only on a quiet line: one that finds it a
	// heartbeat old, with nothing owed.
	lastSend time.Duration
}

// Governor exposes the session's send governor, which every session has —
// simulation harnesses drive its virtual-time pump directly.
func (sess *Session) Governor() *flow.Governor { return sess.gov }

// Telemetry exposes the session's telemetry handle: flight-recorder ring,
// SLO state, path estimator and input-to-paint histogram.
func (sess *Session) Telemetry() *telemetry.Session { return sess.tel }

// newSessionLocked builds a session and enters it in the table: a blank
// w×h desktop for a first login, or — with restore — the frozen one a
// migration or a state file carries, its encoder resuming the snapshot's
// sequence numbering. The session starts detached. The application is
// built before anything is registered, so a snapshot whose application
// state does not restore leaves no residue. Callers hold s.mu.
func (s *Server) newSessionLocked(id uint32, user string, w, h int, restore *SessionSnapshot) (*Session, error) {
	sess := &Session{ID: id, User: user, Encoder: core.NewEncoder(w, h)}
	if restore != nil {
		copy(sess.Encoder.FB.Pix, restore.Pixels)
		sess.Encoder.ResumeAt(restore.LastSeq)
	}
	if s.NewApp != nil {
		sess.App = s.NewApp(user, w, h)
		if p, ok := sess.App.(Persistent); ok && restore != nil && restore.AppState != nil {
			if err := p.RestoreState(restore.AppState); err != nil {
				return nil, fmt.Errorf("server: restore %q app state: %w", user, err)
			}
		}
	}
	sess.tel = s.tel.Session(id, user)
	sess.Encoder.Metrics = s.encMetrics
	sess.Encoder.Flight = sess.tel.Flight
	sess.gov = flow.NewGovernor(s.flowCfg, flow.NewMetrics(s.tel.Registry, sess.tel.Series))
	sess.flowPending = &s.flowPending
	s.sessions = append(s.sessions, sess)
	s.byUser[user] = sess
	s.metrics.sessions.Add(1)
	return sess, nil
}

// snapshot freezes the session's server-side truth: pixels, application
// state, and the sequence counter.
func (sess *Session) snapshot() *SessionSnapshot {
	sn := &SessionSnapshot{
		ID:      sess.ID,
		User:    sess.User,
		W:       sess.Encoder.FB.W,
		H:       sess.Encoder.FB.H,
		Pixels:  append([]protocol.Pixel(nil), sess.Encoder.FB.Pix...),
		LastSeq: sess.Encoder.LastSeq(),
	}
	if p, ok := sess.App.(Persistent); ok {
		sn.AppState = p.SaveState()
	}
	return sn
}

// unbindLocked takes a session off its console, telling the console so.
// Callers hold s.mu.
func (s *Server) unbindLocked(out *[]outbound, sess *Session) {
	if sess.Console == "" {
		return
	}
	if cs, ok := s.consoles[sess.Console]; ok && cs.sess == sess {
		cs.sess = nil
	}
	send(out, sess.Console, &protocol.SessionDetach{SessionID: sess.ID})
	sess.detach()
}

// detach forgets the console and the debt to it: the next one is owed the
// whole screen anyway.
func (sess *Session) detach() {
	sess.Console = ""
	sess.damage.Clear()
}

// closeLocked removes a session from this server: the console is unbound
// (what it was owed dies with the session here, the governor with it), and
// the telemetry handle closed: its labeled series leave the registry, and
// the kit's shared per-session stores are evicted only when evictShared —
// a migration leaves them for the importing server to resolve again, a
// terminated session takes them along. Callers hold s.mu.
func (s *Server) closeLocked(out *[]outbound, sess *Session, evictShared bool) {
	s.unbindLocked(out, sess)
	s.sessions = slices.DeleteFunc(s.sessions, func(x *Session) bool { return x == sess })
	delete(s.byUser, sess.User)
	s.metrics.sessions.Add(-1)
	sess.tel.Close(evictShared)
}

// attach binds the session to a console and regenerates its screen there.
// gen2 says whether this attachment negotiated the tile cache.
func (sess *Session) attach(out *[]outbound, console string, gen2 bool, now time.Duration) {
	sess.Console = console
	send(out, console, &protocol.SessionAttach{SessionID: sess.ID})
	// The new console learns this session's bandwidth demand, measured
	// afresh, so its allocator can grant a share (§7).
	sess.gov.Reset(now)
	sess.requestBandwidth(out, now)
	// A gen-1 console gets the plain encoding — same pixels, no
	// CACHE_PAINT on its wire. EnableCodec2 resets the server-side cache
	// and the SessionAttach above resets the console's (its setSession
	// does), so both sides restart mirrored from an empty cache.
	if gen2 {
		sess.Encoder.EnableCodec2(0)
	} else {
		sess.Encoder.DisableCodec2()
	}
	// The console held only soft state: it is owed the screen "to the exact
	// state at which it was left" (§1.1), whatever the last one was owed.
	sess.oweScreen()
	sess.repay(out, now)
}

// oweScreen makes the debt the whole screen: a new console, or one whose
// state is lost past telling which part — tile cache included, so gen-2
// starts a fresh cache generation that the repaint re-seeds on both sides.
func (sess *Session) oweScreen() {
	sess.Encoder.ResetCodec2()
	sess.damage.Clear()
	sess.damage.Add(sess.Encoder.FB.Bounds())
}

// oweNack adds what the sent log says the loss n cost the console. A range
// aged out of the log costs the screen.
func (sess *Session) oweNack(n protocol.Nack) {
	if d, ok := sess.Encoder.Damage(n); ok {
		sess.damage.AddRegion(&d)
	} else {
		sess.oweScreen()
	}
}

// repay sends what the session owes, repainted from the frame buffer as it
// is now, in one Encoder.Repay: what the tokens cover once they hold a
// tile (or a burst shallower than one), at most half a burst per call, so
// the UDP pump's 1 ms floor spaces the halves: a whole bucket at once, as
// on a hotdesk under a live grant, overruns the console's receive buffer.
// A debt left raises FlowPending.
func (sess *Session) repay(out *[]outbound, now time.Duration) {
	if sess.damage.Empty() {
		return
	}
	burst := sess.gov.Config().BurstBytes
	if budget := min(sess.gov.Tokens(now), max(burst/2, core.TileWire)); budget >= min(core.TileWire, burst) {
		sess.submit(out, sess.Encoder.Repay(&sess.damage, budget), now, true)
	}
	if !sess.damage.Empty() {
		sess.flowPending.Store(true)
	}
}

// requestBandwidth announces the governor's current demand to the console.
func (sess *Session) requestBandwidth(out *[]outbound, now time.Duration) {
	sess.tel.Path.OnProbe()
	sess.demandBps = sess.gov.DemandBps(now)
	send(out, sess.Console, &protocol.BandwidthRequest{SessionID: sess.ID, Bps: sess.demandBps})
}

// announceDemand re-announces the session's bandwidth demand when the
// governor's measured demand has drifted from the last announcement by
// more than 1/8 in either direction. The governor measures bytes actually
// sent, so a session whose gen-2 cache absorbs most of its pixel traffic
// shrinks its claim and the console's §7 allocator can grant the freed
// budget to hungrier sessions; a cache gone cold grows it back. The 1/8
// deadband keeps steady-state traffic from emitting a BandwidthRequest
// every pump. The session is attached.
func (sess *Session) announceDemand(out *[]outbound, now time.Duration) {
	if d, old := sess.gov.DemandBps(now), sess.demandBps; max(d, old)-min(d, old) > old/8 {
		sess.requestBandwidth(out, now)
	}
}

// render paints ops into the frame buffer and sends the console what the
// grant can take now. An op is encoded and sent only if admitted (admit);
// otherwise it is applied to the frame buffer alone and the rect it wrote
// joins the debt. An encoded pure write paints its rect with current
// pixels, so it pays whatever of that rect was owed. render ends in repay,
// like every path that can leave a debt: fresh commands first, then the
// next piece of what is owed.
func (sess *Session) render(out *[]outbound, ops []core.Op, now time.Duration) error {
	for _, op := range ops {
		if !sess.admit(op, now) {
			w, err := sess.Encoder.Apply(op)
			if err != nil {
				return err
			}
			sess.damage.Add(w)
			if sess.tel.Flight.Armed() {
				sess.tel.Flight.Owe(int64(w.Pixels()), int64(sess.gov.Tokens(now)))
			}
			continue
		}
		dgs, err := sess.Encoder.Encode(op)
		if err != nil {
			return err
		}
		if !sess.damage.Empty() {
			for _, d := range dgs {
				sess.damage.Subtract(core.WriteRect(d.Msg))
			}
		}
		sess.submit(out, dgs, now, false)
	}
	sess.repay(out, now)
	return nil
}

// admit decides before encoding whether op goes to the console now. A
// COPY that reads pixels the console is owed would spread stale ones, so
// it is owed itself; any other op is the governor's call (Admit), on the
// most its encoding can cost. A detached session admits everything.
func (sess *Session) admit(op core.Op, now time.Duration) bool {
	if sess.Console == "" {
		return true
	}
	if sc, ok := op.(core.ScrollOp); ok && sess.damage.Intersects(sc.Rect) {
		return false
	}
	return sess.gov.Admit(now, core.WireBound(op))
}

// submit sends display datagrams to the console, charging the session's
// bucket for them. owed marks repayment.
func (sess *Session) submit(out *[]outbound, dgs []core.Datagram, now time.Duration, owed bool) {
	if sess.Console == "" {
		// Detached session keeps rendering into its frame buffer; the wire
		// goes nowhere, so its buffer returns to the pool immediately.
		for i := range dgs {
			dgs[i].ReleaseWire()
		}
		return
	}
	for _, d := range dgs {
		sess.gov.Submit(now, flow.Item{Msg: d.Msg, Wire: d.Wire, Retransmit: owed})
		sess.sent(out, d.Seq, d.Msg.Type(), d.Wire, d.Buf, now)
	}
}

// pump pays what the clock owes an attached session at now: the next piece
// of the debt the tokens cover, a drifted demand. PumpFlows runs it on a
// transport's clock, handleStatus at every heartbeat: no pump is scheduled
// with nothing owed, yet an idle grant must go back.
func (sess *Session) pump(out *[]outbound, now time.Duration) {
	sess.repay(out, now)
	sess.announceDemand(out, now)
}

// sent queues a display command for the console and notes it leaving. A
// repaint is numbered afresh, so no acknowledgement is ever ambiguous
// between two transmissions and every one may time the path.
func (sess *Session) sent(out *[]outbound, seq uint32, cmd protocol.MsgType, wire []byte, buf *wirebuf.Buf, now time.Duration) {
	sess.tel.Path.OnSend(seq, len(wire), false)
	sess.lastSend = now
	*out = append(*out, outbound{console: sess.Console, wire: wire, flog: sess.tel.Flight, seq: seq, cmd: cmd, buf: buf})
}

// send queues one control message for a console.
func send(out *[]outbound, console string, msg protocol.Message) {
	*out = append(*out, outbound{console: console, wire: protocol.Encode(nil, 0, msg)})
}
