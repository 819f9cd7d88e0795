package server

import (
	"fmt"
	"time"

	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// Session is one user's persistent desktop: the authoritative frame buffer
// (inside the encoder), the running application, and the console it is
// currently displayed on (if any). The Server routes console traffic to
// sessions; everything a session owns is built in newSessionLocked,
// frozen by snapshot, and released in closeLocked — nowhere else. All of
// it is guarded by Server.mu.
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
	// gov paces display traffic to the console's bandwidth grant (§7);
	// nil when the server runs without WithFlowControl.
	gov *flow.Governor
	// demandBps is the bandwidth demand last announced to the console's §7
	// allocator; PumpFlows re-announces when the governor's measured demand
	// drifts from it by more than 1/8.
	demandBps uint64
}

// Governor exposes the session's send governor (nil when flow control is
// disabled) — simulation harnesses drive its virtual-time pump directly.
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
	sess.Encoder.Parallel = s.encPool
	sess.Encoder.Flight = sess.tel.Flight
	if s.flowCfg != nil {
		sess.gov = flow.NewGovernor(*s.flowCfg, flow.NewMetrics(s.tel.Registry, sess.tel.Series))
		if s.cal != nil && s.cal.Generation() > 0 {
			// Sessions born after calibration converged start from the
			// measured model, not the Table 5 constants.
			sess.gov.SetCosts(s.cal.Model())
		}
	}
	s.sessions[id] = sess
	s.byUser[user] = id
	s.metrics.sessions.Set(int64(len(s.sessions)))
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
	if cs, ok := s.consoles[sess.Console]; ok && cs.session == sess.ID {
		cs.session = 0
	}
	send(out, sess.Console, &protocol.SessionDetach{SessionID: sess.ID})
	sess.Console = ""
}

// closeLocked removes a session from this server: the console is unbound,
// the governor quiesced (queued damage dies with the session here), and
// the telemetry handle closed: its labeled series leave the registry, and
// the kit's shared per-session stores are evicted only when evictShared —
// a migration leaves them for the importing server to resolve again, a
// terminated session takes them along. Callers hold s.mu.
func (s *Server) closeLocked(out *[]outbound, sess *Session, evictShared bool, now time.Duration) {
	s.unbindLocked(out, sess)
	if sess.gov != nil {
		sess.shed(sess.gov.Quiesce(now))
	}
	delete(s.sessions, sess.ID)
	delete(s.byUser, sess.User)
	s.metrics.sessions.Set(int64(len(s.sessions)))
	sess.tel.Close(evictShared)
}

// attach binds the session to a console and regenerates its screen there.
// gen2 says whether this attachment negotiated the tile cache.
func (sess *Session) attach(out *[]outbound, console string, gen2 bool, now time.Duration) {
	sess.Console = console
	send(out, console, &protocol.SessionAttach{SessionID: sess.ID})
	if sess.gov != nil {
		// Damage queued for the previous console is worthless here; the
		// full repaint below regenerates everything. The new console also
		// learns this session's bandwidth demand so its allocator can
		// grant a share (§7).
		sess.shed(sess.gov.Reset(now))
		sess.requestBandwidth(out, now)
	}
	// A gen-1 console gets the plain encoding — same pixels, no
	// CACHE_PAINT on its wire. EnableCodec2 resets the server-side cache
	// and the repaint resets the console's (its setSession does), so both
	// sides restart mirrored from an empty cache.
	if gen2 {
		sess.Encoder.EnableCodec2(0)
	} else {
		sess.Encoder.DisableCodec2()
	}
	// The console held only soft state: repaint the screen "to the exact
	// state at which it was left" (§1.1).
	sess.submit(out, sess.Encoder.RepaintAll(), now, false)
}

// shed accounts for commands the governor dropped before they reached the
// wire, and recycles their buffers.
func (sess *Session) shed(items []flow.Item) {
	for _, it := range items {
		if sess.tel.Flight.Armed() {
			sess.tel.Flight.Drop(it.Seq, it.Cmd, int64(it.Bytes()))
		}
		it.ReleaseWire()
	}
}

// requestBandwidth announces the governor's current demand to the console.
func (sess *Session) requestBandwidth(out *[]outbound, now time.Duration) {
	sess.tel.Path.OnProbe()
	sess.demandBps = sess.gov.DemandBps()
	send(out, sess.Console, &protocol.BandwidthRequest{SessionID: sess.ID, Bps: sess.demandBps})
}

// announceDemand re-announces the session's bandwidth demand when the
// governor's measured demand has drifted from the last announcement by
// more than 1/8 in either direction. The governor measures bytes actually
// sent, so a session whose gen-2 cache absorbs most of its pixel traffic
// shrinks its claim and the console's §7 allocator can grant the freed
// budget to hungrier sessions; a cache gone cold grows it back. The 1/8
// deadband keeps steady-state traffic from emitting a BandwidthRequest
// every pump. The session is governed and attached.
func (sess *Session) announceDemand(out *[]outbound, now time.Duration) {
	d, old := sess.gov.DemandBps(), sess.demandBps
	diff := d - old
	if d < old {
		diff = old - d
	}
	if diff*8 <= old {
		return
	}
	sess.requestBandwidth(out, now)
}

// render encodes ops and queues the result for the session's console.
func (sess *Session) render(out *[]outbound, ops []core.Op, now time.Duration) error {
	for _, op := range ops {
		if sess.tel.Flight.Armed() {
			sess.tel.Flight.Op(int64(op.RawPixels()))
		}
		dgs, err := sess.Encoder.Encode(op)
		if err != nil {
			return err
		}
		sess.submit(out, dgs, now, false)
	}
	return nil
}

// retransmit regenerates a nacked range from the authoritative frame
// buffer and charges the wire bytes against the governor's retransmit
// budget, so replay storms cannot starve fresh paints. The session is
// governed.
func (sess *Session) retransmit(out *[]outbound, n protocol.Nack, now time.Duration) {
	dgs := sess.Encoder.HandleNack(n)
	var bytes int
	for _, d := range dgs {
		bytes += len(d.Wire)
	}
	sess.gov.SpendRetry(bytes)
	sess.submit(out, dgs, now, true)
}

// submit routes display datagrams to the console: directly when the
// session is ungoverned or has no grant yet, through the governor's
// supersession queue and token bucket otherwise.
func (sess *Session) submit(out *[]outbound, dgs []core.Datagram, now time.Duration, retrans bool) {
	if sess.Console == "" {
		// Detached session keeps rendering into its frame buffer; the wire
		// goes nowhere, so its buffer returns to the pool immediately.
		for i := range dgs {
			dgs[i].ReleaseWire()
		}
		return
	}
	for _, d := range dgs {
		cmd := d.Msg.Type()
		if sess.gov != nil {
			it := flow.Item{Seq: d.Seq, Cmd: cmd, Msg: d.Msg, Wire: d.Wire, Buf: d.Buf, Retransmit: retrans}
			res := sess.gov.Submit(now, it)
			if !res.Pass {
				if sess.tel.Flight.Armed() {
					sess.tel.Flight.TxQueue(d.Seq, cmd, int64(it.Bytes()), int64(res.Depth))
					for _, sup := range res.Superseded {
						sess.tel.Flight.Supersede(sup.Seq, sup.Cmd, d.Seq, int64(sup.Bytes()))
					}
				}
				// Shed commands never reach the wire: recycle their
				// buffers once the flight recorder has accounted for them.
				// The encoder learns which ones newer state covers (a NACK
				// over them asks for nothing); an evicted one is just lost.
				for i := range res.Superseded {
					sess.Encoder.MarkSuperseded(res.Superseded[i].Seq)
					res.Superseded[i].ReleaseWire()
				}
				sess.shed(res.Evicted)
				continue
			}
		}
		sess.tel.Path.OnSend(d.Seq, len(d.Wire), retrans)
		*out = append(*out, outbound{
			console: sess.Console,
			wire:    d.Wire,
			flog:    sess.tel.Flight,
			seq:     d.Seq,
			cmd:     cmd,
			buf:     d.Buf,
		})
	}
	if sess.gov != nil {
		sess.releaseFlow(out, now)
	}
}

// releaseFlow drains whatever the governor's token bucket permits at now.
// The session is governed.
func (sess *Session) releaseFlow(out *[]outbound, now time.Duration) {
	if sess.Console == "" {
		return
	}
	for _, p := range sess.gov.Release(now) {
		it := p.Items[0]
		sess.tel.Path.OnSend(it.Seq, it.Bytes(), it.Retransmit)
		*out = append(*out, outbound{
			console: sess.Console,
			wire:    p.Wire,
			flog:    sess.tel.Flight,
			seq:     it.Seq,
			cmd:     it.Cmd,
			buf:     it.Buf,
		})
	}
}

// send queues one control message for a console.
func send(out *[]outbound, console string, msg protocol.Message) {
	*out = append(*out, outbound{console: console, wire: protocol.Encode(nil, 0, msg)})
}
