// Package slo is the interpretation tier above the raw latency telemetry:
// an online service-level-objective engine for the paper's §3 interactivity
// bound. The objective is expressed the way operators state it — "at most
// 1% of input events may take longer than 150 ms to paint" — and tracked
// the way modern SRE practice evaluates it: rolling multi-window breach
// rates (a short ≈5 s window for detection, a mid ≈1 m and long ≈5 m
// window for confirmation and recovery), each converted to a *burn rate*,
// the ratio of the observed breach rate to the budgeted one. Burn 1.0
// means the error budget is being spent exactly as fast as it accrues;
// burn 10 means ten times too fast.
//
// Health states derive from the burns:
//
//   - BREACHING — the short AND mid windows both burn at ≥ 1: the
//     violation is real and still happening.
//   - DEGRADED — some window burns at ≥ 1 but the condition is either too
//     young to confirm (short only) or already over (long tail).
//   - OK — every window is inside budget.
//
// Tracking is per session and fleet-wide, lock-free on the observe path
// and allocation-free. An event is a few atomic adds into epoch-tagged slot
// rings; a scope's windows are evaluated — burns summed, gauges and state
// published, transitions detected — only while one of them can still hold
// a breach, and once more at the first observe after the last breach has
// left them all. Outside those spans every burn is zero and the state OK,
// which is what the gauges already read, so the published values are
// those of evaluating at every event. Tracking is also evictable: Remove
// takes a terminated session's labeled series out of the registry so
// long-lived servers do not leak cardinality. A tracker stamps and reads
// its windows on one obs.Clock; on a sim-domain clock it also accepts
// explicit virtual timestamps (ObserveAt), so capacity simulations reuse
// the same burn machinery.
package slo

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/flight"
)

// State is a session's (or the fleet's) SLO health.
type State int

const (
	// StateOK: every window is inside budget.
	StateOK State = iota
	// StateDegraded: at least one window is burning budget faster than it
	// accrues, but the breach is not confirmed across short and mid.
	StateDegraded
	// StateBreaching: the short and mid windows both burn at >= 1 — the
	// SLO is being violated right now.
	StateBreaching
)

var stateNames = [...]string{"OK", "DEGRADED", "BREACHING"}

// String names the state.
func (s State) String() string {
	if int(s) >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "UNKNOWN"
}

// Window roles, in rising duration. The short window detects, the mid
// window confirms, the long window remembers.
const (
	WinShort = iota
	WinMid
	WinLong
	numWindows
)

var windowRoles = [numWindows]string{"short", "mid", "long"}

// Config parameterizes a tracker.
type Config struct {
	// Target is the per-event latency objective (the paper's 150 ms
	// annoyance bound). Latencies above Target are breaches, for the
	// flight recorder's dumps and blame too (telemetry.Session.ObservePaint).
	Target time.Duration
	// Budget is the allowed breach fraction, e.g. 0.01 for "1% of events".
	Budget float64
	// Short, Mid, Long are the rolling window durations.
	Short, Mid, Long time.Duration
}

// DefaultConfig is the paper-derived objective: 150 ms at 1%, evaluated
// over 5 s / 1 m / 5 m windows.
func DefaultConfig() Config {
	return Config{
		Target: 150 * time.Millisecond,
		Budget: 0.01,
		Short:  5 * time.Second,
		Mid:    time.Minute,
		Long:   5 * time.Minute,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Target <= 0 {
		c.Target = d.Target
	}
	if c.Budget <= 0 {
		c.Budget = d.Budget
	}
	if c.Short <= 0 {
		c.Short = d.Short
	}
	if c.Mid <= 0 {
		c.Mid = d.Mid
	}
	if c.Long <= 0 {
		c.Long = d.Long
	}
	return c
}

// WindowStat is one window's point-in-time evaluation.
type WindowStat struct {
	// Role is "short", "mid", or "long"; Window is its duration.
	Role   string        `json:"role"`
	Window time.Duration `json:"window_ns"`
	// Events and Breaches are the totals inside the window.
	Events   int64 `json:"events"`
	Breaches int64 `json:"breaches"`
	// BreachPct is 100*Breaches/Events; Burn is the budget burn rate
	// (breach fraction divided by budget — 1.0 spends exactly on budget).
	BreachPct float64 `json:"breach_pct"`
	Burn      float64 `json:"burn"`
}

// stateOf derives the health state from the three window burns.
func stateOf(burns [numWindows]float64) State {
	if burns[WinShort] >= 1 && burns[WinMid] >= 1 {
		return StateBreaching
	}
	for _, b := range burns {
		if b >= 1 {
			return StateDegraded
		}
	}
	return StateOK
}

// windows is the per-scope (session or fleet) rolling state: three shared
// epoch-slot windows counting events and breaches, and the gate that says
// when they are worth evaluating.
type windows struct {
	win  [numWindows]obs.Window
	gate gate
}

func (ws *windows) init(cfg Config) {
	ws.win[WinShort].Init(cfg.Short)
	ws.win[WinMid].Init(cfg.Mid)
	ws.win[WinLong].Init(cfg.Long)
}

func (ws *windows) observe(nowNs int64, breach bool) {
	var breaches int64
	if breach {
		breaches = 1
	}
	for i := range ws.win {
		ws.win[i].Add(nowNs, 1, breaches, 0)
	}
	if breach {
		// After the add, so an evaluation the gate lets through sees it.
		ws.gate.breach(ws.expiry(nowNs))
	}
}

// expiry is the first instant at which an event at nowNs has left every
// window — the longest window need not be the last one configured.
func (ws *windows) expiry(nowNs int64) int64 {
	var e int64
	for i := range ws.win {
		e = max(e, ws.win[i].Expiry(nowNs))
	}
	return e
}

// evalGated is eval behind the gate: ok is false when no window can hold
// a breach at nowNs, so every burn is zero and the state OK — what the
// scope published at the evaluation that closed the gate. hot reports a
// breach in some window; the caller hands it to gate.published once it
// has published the burns.
func (ws *windows) evalGated(nowNs int64, budget float64) (burns [numWindows]float64, hot, ok bool) {
	if !ws.gate.open(nowNs) {
		return burns, false, false
	}
	burns, stats := ws.eval(nowNs, budget)
	for _, st := range stats {
		hot = hot || st.Breaches > 0
	}
	return burns, hot, true
}

// eval computes the three burns as of nowNs.
func (ws *windows) eval(nowNs int64, budget float64) (burns [numWindows]float64, stats [numWindows]WindowStat) {
	for i := range ws.win {
		ev, br, _ := ws.win[i].Totals(nowNs)
		st := WindowStat{
			Role:     windowRoles[i],
			Window:   ws.win[i].Span(),
			Events:   ev,
			Breaches: br,
		}
		if ev > 0 {
			frac := float64(br) / float64(ev)
			st.BreachPct = 100 * frac
			if budget > 0 {
				st.Burn = frac / budget
			}
		}
		burns[i] = st.Burn
		stats[i] = st
	}
	return burns, stats
}

// gate spares a scope's observe path the evaluation of its windows while
// none of them can hold a breach: the burns are then zero and the state
// OK, which is what the scope's gauges already read. until is the expiry
// of the latest breach: 0 before any breach, positive while the gate is
// open, negated once the first observe at or past it has closed the gate
// with one last evaluation. Every change is a CAS on the one word, so a
// breach racing the close either lands before it — the close fails and
// re-reads — or reopens the gate after it.
type gate struct{ until atomic.Int64 }

// breach opens the gate until at least expiry.
func (g *gate) breach(expiry int64) {
	for {
		u := g.until.Load()
		v := max(u, -u, expiry)
		if u == v || g.until.CompareAndSwap(u, v) {
			return
		}
	}
}

// open reports whether an observe at nowNs must evaluate: while the gate
// is open, and for the observe that closes it. A closed gate still lets
// through an observe stamped before the expiry it closed at — instants
// may arrive out of order, and the breach is in that observe's windows.
func (g *gate) open(nowNs int64) bool {
	for {
		u := g.until.Load()
		switch {
		case u == 0:
			return false
		case u < 0:
			return nowNs < -u
		case nowNs < u:
			return true
		case g.until.CompareAndSwap(u, -u):
			return true
		}
	}
}

// published follows every gated evaluation once its results are out. An
// evaluation that found a breach (hot) while the gate closed behind it —
// an older observe that may have published over the closing one, or an
// out-of-order instant — reopens the gate, so the next observe evaluates
// again and publishes what eager evaluation would.
func (g *gate) published(hot bool) {
	if u := g.until.Load(); hot && u < 0 {
		g.until.CompareAndSwap(u, -u)
	}
}

// Tracker evaluates the SLO on one clock: fleet-wide plus one SessionSLO
// per live session. The zero value is not usable; call New.
type Tracker struct {
	clock *obs.Clock
	cfg   Config

	enabled   atomic.Bool
	targetNs  atomic.Int64
	budgetPPM atomic.Int64 // budget fraction in parts per million

	fleet      windows
	fleetBlame [flight.NumStages]atomic.Int64

	// lastState is the fleet state as of the last observe; nSubs mirrors
	// len(subs) so the observe path can skip subscription work with one
	// atomic load when nobody is listening.
	lastState atomic.Int64
	nSubs     atomic.Int64

	sessions obs.Sessions[SessionSLO]

	mu        sync.RWMutex
	subs      []stateSub
	nextSubID int

	// Instruments (nil until Instrument): fleet counters and gauges, plus
	// the registry per-session state gauges resolve in and evict from.
	reg        *obs.Registry
	events     *obs.Counter
	breachesC  *obs.Counter
	burnGauges [numWindows]*obs.Gauge
	stateGauge *obs.Gauge
	blameC     [flight.NumStages]*obs.Counter
}

// New returns an enabled tracker that stamps and reads its windows on
// clock. Zero config fields take the defaults.
func New(clock *obs.Clock, cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{clock: clock, cfg: cfg}
	t.fleet.init(cfg)
	t.enabled.Store(true)
	t.targetNs.Store(int64(cfg.Target))
	t.budgetPPM.Store(int64(cfg.Budget * 1e6))
	return t
}

// Instrument resolves the tracker's fleet instruments in reg and makes it
// the registry per-session state gauges live in: slim_slo_events_total,
// slim_slo_breaches_total, slim_slo_burn_milli{window=...},
// slim_slo_state (0=OK 1=DEGRADED 2=BREACHING, fleet and per-session),
// and slim_slo_blame_total{stage=...}.
func (t *Tracker) Instrument(reg *obs.Registry) *Tracker {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reg = reg
	t.events = reg.Counter("slim_slo_events_total")
	t.breachesC = reg.Counter("slim_slo_breaches_total")
	for i := range t.burnGauges {
		t.burnGauges[i] = reg.Gauge(`slim_slo_burn_milli{window="` + windowRoles[i] + `"}`)
	}
	t.stateGauge = reg.Gauge("slim_slo_state")
	for i := range t.blameC {
		t.blameC[i] = reg.Counter(`slim_slo_blame_total{stage="` + strings.ToLower(flight.Stage(i).String()) + `"}`)
	}
	return t
}

// SetEnabled switches evaluation on or off. Disabled, every Observe costs
// one atomic load and allocates nothing; the windows are retained.
func (t *Tracker) SetEnabled(on bool) { t.enabled.Store(on) }

// SetTarget updates the per-event latency objective.
func (t *Tracker) SetTarget(d time.Duration) {
	if d > 0 {
		t.targetNs.Store(int64(d))
	}
}

// Target reports the latency objective.
func (t *Tracker) Target() time.Duration { return time.Duration(t.targetNs.Load()) }

// SetBudget updates the allowed breach fraction (0 < b <= 1).
func (t *Tracker) SetBudget(b float64) {
	if b > 0 && b <= 1 {
		t.budgetPPM.Store(int64(b * 1e6))
	}
}

// Budget reports the allowed breach fraction.
func (t *Tracker) Budget() float64 { return float64(t.budgetPPM.Load()) / 1e6 }

// stateSub is one registered fleet state-transition listener.
type stateSub struct {
	id int
	fn func(from, to State)
}

// Subscribe registers fn to be called whenever the fleet health state
// changes (OK→DEGRADED→BREACHING and back). Transitions are detected on
// the observe path, so a silent tracker reports no transitions until the
// next event arrives. fn runs synchronously inside Observe — it must be
// fast and non-blocking (enqueue and return; the incident engine hands
// off to a worker goroutine). The returned cancel func removes the
// subscription; it is idempotent.
func (t *Tracker) Subscribe(fn func(from, to State)) (cancel func()) {
	t.mu.Lock()
	id := t.nextSubID
	t.nextSubID++
	// Copy-on-write: observe-path readers iterate a stable slice without
	// holding the lock across callbacks.
	subs := make([]stateSub, len(t.subs), len(t.subs)+1)
	copy(subs, t.subs)
	t.subs = append(subs, stateSub{id: id, fn: fn})
	t.nSubs.Store(int64(len(t.subs)))
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		ns := make([]stateSub, 0, len(t.subs))
		for _, s := range t.subs {
			if s.id != id {
				ns = append(ns, s)
			}
		}
		t.subs = ns
		t.nSubs.Store(int64(len(ns)))
	}
}

// noteState records the freshly evaluated fleet state and fires
// subscribers on a transition. The no-change path is one atomic load.
func (t *Tracker) noteState(st State) {
	old := State(t.lastState.Load())
	if old == st {
		return
	}
	if !t.lastState.CompareAndSwap(int64(old), int64(st)) {
		return // a concurrent observe already owns this transition
	}
	if t.nSubs.Load() == 0 {
		return
	}
	t.mu.RLock()
	subs := t.subs
	t.mu.RUnlock()
	for _, s := range subs {
		s.fn(old, st)
	}
}

// Session returns the session's SLO state, creating (and instrumenting)
// it on first use.
func (t *Tracker) Session(id uint32, user string) *SessionSLO {
	return t.sessions.Get(id, func() *SessionSLO {
		s := &SessionSLO{id: id, user: user, t: t}
		s.win.init(t.cfg)
		t.mu.RLock()
		reg := t.reg
		t.mu.RUnlock()
		if reg != nil {
			s.series = reg.Labeled("session", user)
			s.stateGauge = s.series.Gauge("slim_slo_state")
		}
		return s
	})
}

// Remove evicts a terminated session: its windows are dropped and its
// labeled state gauge leaves the registry — the SLO half of the
// cardinality-eviction contract server.Terminate honors.
func (t *Tracker) Remove(id uint32) {
	if s := t.sessions.Remove(id); s != nil && s.series != nil {
		s.series.Remove()
	}
}

// SessionIDs lists sessions with live SLO state, ascending.
func (t *Tracker) SessionIDs() []uint32 { return t.sessions.IDs() }

// State reports the fleet health right now.
func (t *Tracker) State() State {
	burns, _ := t.fleet.eval(int64(t.clock.Now()), t.Budget())
	return stateOf(burns)
}

// FleetWindows reports the fleet's window evaluations right now.
func (t *Tracker) FleetWindows() [numWindows]WindowStat {
	_, stats := t.fleet.eval(int64(t.clock.Now()), t.Budget())
	return stats
}

// observe is the shared observe path. The gauges and transitions it
// publishes are those of evaluating every window at every observe, but a
// scope's windows are evaluated only while its gate is open: in a quiet
// fleet an observe is the window adds and the counters.
func (t *Tracker) observe(s *SessionSLO, nowNs int64, latency time.Duration) {
	breach := latency > time.Duration(t.targetNs.Load())
	t.fleet.observe(nowNs, breach)
	if s != nil {
		s.win.observe(nowNs, breach)
	}
	if t.events != nil {
		t.events.Inc()
		if breach {
			t.breachesC.Inc()
		}
		budget := t.Budget()
		if burns, hot, ok := t.fleet.evalGated(nowNs, budget); ok {
			for i := range burns {
				t.burnGauges[i].Set(int64(burns[i] * 1000))
			}
			fleetState := stateOf(burns)
			t.stateGauge.Set(int64(fleetState))
			t.noteState(fleetState)
			t.fleet.gate.published(hot)
		}
		if s != nil && s.stateGauge != nil {
			if sburns, hot, ok := s.win.evalGated(nowNs, budget); ok {
				s.stateGauge.Set(int64(stateOf(sburns)))
				s.win.gate.published(hot)
			}
		}
	} else if t.nSubs.Load() != 0 {
		if burns, hot, ok := t.fleet.evalGated(nowNs, t.Budget()); ok {
			t.noteState(stateOf(burns))
			t.fleet.gate.published(hot)
		}
	}
}

// SessionSLO is one session's rolling SLO state. A nil *SessionSLO is
// inert — every method no-ops — so call sites instrument unconditionally.
type SessionSLO struct {
	id   uint32
	user string
	t    *Tracker

	win   windows
	blame [flight.NumStages]atomic.Int64

	// series owns the session's labeled state gauge (nil on an
	// uninstrumented tracker); Remove evicts through it.
	series     *obs.Labeled
	stateGauge *obs.Gauge
}

// Armed reports whether SLO evaluation is live — the guard call sites use
// before computing anything observe-only.
func (s *SessionSLO) Armed() bool {
	return s != nil && s.t.enabled.Load()
}

// Observe evaluates one input-to-paint latency at wall, the reading of
// obs.Wall that ended it: a wall tracker stamps that reading instead of
// reading the clock again, a sim tracker its virtual now. The disabled
// path is a nil check plus one atomic load.
func (s *SessionSLO) Observe(wall, latency time.Duration) {
	if !s.Armed() {
		return
	}
	s.t.observe(s, int64(s.t.clock.At(wall)), latency)
}

// ObserveAt evaluates one latency at an explicit virtual time and moves
// the tracker's clock forward to it, so a read after a batch of events
// sees them all however they were ordered. Only sim-domain trackers accept
// it: wall windows never receive virtual time.
func (s *SessionSLO) ObserveAt(now time.Duration, latency time.Duration) {
	if !s.Armed() {
		return
	}
	if s.t.clock.Domain() != obs.DomainSim {
		panic("slo: ObserveAt on a wall-domain tracker; use Observe")
	}
	s.t.clock.Advance(now)
	s.t.observe(s, int64(now), latency)
}

// RecordBlame attributes one breach to its dominant latency stage,
// accumulating the session and fleet blame histograms.
func (s *SessionSLO) RecordBlame(st flight.Stage) {
	if !s.Armed() || int(st) >= flight.NumStages {
		return
	}
	s.blame[st].Add(1)
	s.t.fleetBlame[st].Add(1)
	if c := s.t.blameC[st]; c != nil {
		c.Inc()
	}
}
