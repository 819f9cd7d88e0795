// Package flight is the causal flight recorder: an always-on, per-session
// ring buffer of typed protocol events covering the whole display path —
// input received, command encoded, transmitted, received, painted —
// linked into causal chains by the protocol sequence numbers that already
// flow end to end.
//
// The paper's methodology (§3.1, §5) is event-level: every input event and
// display command is timestamped so interactive latency can be decomposed
// after the fact. The aggregate histograms of internal/obs say *that* a
// paint blew past the 150 ms annoyance threshold; the flight recorder says
// *why*, by keeping the last few thousand events of every session in a
// ring under one mutex that costs a lock and a 40-byte store per event
// when enabled and a single atomic load when disabled.
//
// Two read paths exist:
//
//   - /debug/trace?session=N&last=5s on the slimd debug endpoint renders a
//     session's recent events as Chrome/Perfetto trace-event JSON.
//   - When a session's input-to-paint latency breaches the SLO target
//     (default the paper's 150 ms; the caller decides, see RecordBreach),
//     the recorder snapshots that session's recent events to a dump file
//     on disk, so slow interactions remain diagnosable after the fact.
//
// A recorder stamps events from its obs.Clock: the process-wide wall clock,
// or a sim-domain virtual clock its harness moves. The stages a call site
// has already read obs.Wall for — Input at an input's arrival, Encode at
// the end of an Encode call, Tx once per run of commands handed to the
// transport, Rx at a command's arrival, Paint after its apply — take that
// reading as their first argument: a wall recorder stamps it instead of
// reading the clock again, a sim-domain recorder stamps its virtual now
// either way. Only sim-domain recorders accept explicit virtual timestamps
// (RecordAt), so a wall ring can never receive virtual time.
package flight

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// Kind classifies a flight-recorder event.
type Kind uint8

// Event kinds, in rough pipeline order.
const (
	// EvInput: an input event (keystroke, pointer update) that drew — its
	// application returned ops — reached the server. Opens a new causal
	// chain: the event's Cause is the fresh input-chain ID inherited by
	// everything recorded for this session until the next such input.
	// A = key code, or the pointer position as X<<16 | Y.
	EvInput Kind = iota + 1
	// Kind 2 was OP, one drawing op submitted to the encoder, which no
	// verdict read: every op ends in an ENCODE or an OWE that carries its
	// pixels. The number stays reserved: dumps store kinds as numbers.
	_
	// EvEncode: the encoder lowered an op into one display command and
	// assigned it a sequence number. A = wire bytes, B = pixels touched.
	EvEncode
	// EvTx: the server handed the command to the transport. A = wire bytes.
	EvTx
	// EvRx: the console transport received the command, before decode.
	// A = wire bytes.
	EvRx
	// Kind 6 was DECODE, always stamped at the PAINT instant. The number
	// stays reserved: dumps store kinds as numbers, and Attribute skips a
	// DECODE an old dump still holds.
	_
	// EvPaint: the console applied the command to its frame buffer — the
	// pixels are on glass (or were shed: a dropped command records EvDrop
	// instead). A = modelled service nanoseconds (0 without a cost model).
	EvPaint
	// EvStatus: a console heartbeat arrived. A = console's last applied
	// sequence, B = cumulative decode drops.
	EvStatus
	// EvNack: a console loss report arrived. A = first lost seq, B = last.
	EvNack
	// EvDrop: a command was lost — dropped on the wire, shed by the decode
	// queue, or rejected by a failing transport. A = wire bytes.
	EvDrop
	// EvLinkTx: a simulated link finished serializing a packet (virtual
	// time). A = payload bytes, B = flow ID.
	EvLinkTx
	// EvBreach: the session's input-to-paint latency breached the SLO
	// target. A = observed latency in nanoseconds, B = target.
	EvBreach
	// Kind 13 was TXQ, a command entering the flow governor's send queue,
	// which is gone. The number stays reserved: dumps store kinds as numbers.
	_
	// EvOwe: the session applied a fresh paint to its frame buffer without
	// encoding it, because the governor's tokens could not take it now; the
	// console is owed the pixels, repainted later from the latest state.
	// A = owed pixels, B = the governor's tokens at the decision.
	EvOwe
)

var kindNames = [...]string{
	EvInput:  "INPUT",
	EvEncode: "ENCODE",
	EvTx:     "TX",
	EvRx:     "RX",
	EvPaint:  "PAINT",
	EvStatus: "STATUS",
	EvNack:   "NACK",
	EvDrop:   "DROP",
	EvLinkTx: "LINK_TX",
	EvBreach: "BREACH",
	EvOwe:    "OWE",
}

// String names the event kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded protocol event.
type Event struct {
	// T is the event timestamp on the recorder's clock: time since the
	// process-wide wall epoch, or virtual time for sim-domain recorders.
	T time.Duration `json:"t"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Cmd is the protocol message type, for protocol-level events.
	Cmd protocol.MsgType `json:"cmd,omitempty"`
	// Seq is the display-protocol sequence number. It links ENCODE → TX →
	// RX → PAINT for one command across machines, which is what
	// makes the chains causal rather than merely temporal.
	Seq uint32 `json:"seq,omitempty"`
	// Cause is the input-chain ID: every event recorded for a session
	// between input N and input N+1 carries N's ID, so a dump links each
	// paint back to the keystroke that provoked it.
	Cause uint64 `json:"cause,omitempty"`
	// A and B are kind-specific payloads; see the Kind constants.
	A int64 `json:"a,omitempty"`
	B int64 `json:"b,omitempty"`
}

// DefaultRingSize is the per-session ring capacity in events. At a typing
// burst of ~100 display commands per second this holds well over the
// default 5 s dump window; bursty video sessions wrap sooner but the most
// recent events — the ones a breach dump wants — always survive.
const DefaultRingSize = 4096

// DefaultWindow is how far back a breach dump reaches.
const DefaultWindow = 5 * time.Second

// DefaultDumpGap rate-limits dumps per session: a pathological session
// breaching on every keystroke produces one dump per gap, not thousands.
const DefaultDumpGap = 5 * time.Second

// SessionLog is one session's event ring. The zero value is not usable;
// obtain logs from Recorder.Session. A nil *SessionLog is inert: every
// recording method no-ops, so call sites instrument unconditionally.
type SessionLog struct {
	rec *Recorder

	// mu guards the ring, its cursor and the current chain: writers (server
	// goroutine, console loop) and snapshot readers take it in turn.
	mu     sync.Mutex
	events []Event
	mask   uint64
	// n counts the events ever pushed; the next one lands at n&mask.
	n uint64
	// cause is the session's current input-chain ID (see Event.Cause).
	cause uint64

	// lastDumpNs rate-limits breach dumps (recorder-clock nanoseconds).
	lastDumpNs atomic.Int64
}

// Armed reports whether recording is live — the guard call sites use
// before computing anything record-only (wire sizes, pixel counts).
func (l *SessionLog) Armed() bool {
	return l != nil && l.rec.enabled.Load()
}

// pushLocked writes ev into the next ring entry. Callers hold l.mu.
func (l *SessionLog) pushLocked(ev Event) {
	l.events[l.n&l.mask] = ev
	l.n++
}

// record stamps one event from the recorder's clock and records it. The
// disabled path is a nil check plus one atomic load.
func (l *SessionLog) record(ev Event) {
	if l.Armed() {
		l.stamp(l.rec.clock.Now(), ev)
	}
}

// recordAt records ev at wall, a reading of obs.Wall the caller has
// already taken: a wall recorder stamps it, a sim-domain one its virtual
// now (obs.Clock.At).
func (l *SessionLog) recordAt(wall time.Duration, ev Event) {
	if l.Armed() {
		l.stamp(l.rec.clock.At(wall), ev)
	}
}

// stamp records ev at t under the session's current input chain.
func (l *SessionLog) stamp(t time.Duration, ev Event) {
	ev.T = t
	l.mu.Lock()
	if ev.Cause == 0 {
		ev.Cause = l.cause
	}
	l.pushLocked(ev)
	l.mu.Unlock()
}

// RecordAt records one event with an explicit virtual timestamp. Only
// sim-domain recorders accept it, so a wall ring can never silently
// receive virtual time.
func (l *SessionLog) RecordAt(t time.Duration, ev Event) {
	if !l.Armed() {
		return
	}
	if l.rec.clock.Domain() != obs.DomainSim {
		panic("flight: RecordAt on a wall-domain recorder; virtual timestamps need a sim-domain recorder")
	}
	ev.T = t
	l.mu.Lock()
	l.pushLocked(ev)
	l.mu.Unlock()
}

// Input records an input event that drew reaching the server and opens a
// new causal chain, returning the fresh input-chain ID. wall is the
// reading of obs.Wall taken at its arrival; cmd is TypeKey or TypePointer;
// arg carries the key code or packed pointer position.
func (l *SessionLog) Input(wall time.Duration, cmd protocol.MsgType, arg int64) uint64 {
	if !l.Armed() {
		return 0
	}
	id := l.rec.inputID.Add(1)
	t := l.rec.clock.At(wall)
	l.mu.Lock()
	l.cause = id
	l.pushLocked(Event{T: t, Kind: EvInput, Cmd: cmd, Cause: id, A: arg})
	l.mu.Unlock()
	return id
}

// chain reports the session's current input-chain ID.
func (l *SessionLog) chain() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cause
}

// Encode records one display command leaving the encoder, at wall — the
// reading of obs.Wall that ended the call returning it.
func (l *SessionLog) Encode(wall time.Duration, seq uint32, cmd protocol.MsgType, bytes, pixels int64) {
	l.recordAt(wall, Event{Kind: EvEncode, Cmd: cmd, Seq: seq, A: bytes, B: pixels})
}

// Tx records one command handed to the transport, at wall — the reading
// of obs.Wall taken for the run of commands it left in.
func (l *SessionLog) Tx(wall time.Duration, seq uint32, cmd protocol.MsgType, bytes int64) {
	l.recordAt(wall, Event{Kind: EvTx, Cmd: cmd, Seq: seq, A: bytes})
}

// Rx records one command received by the console transport, at wall —
// the reading of obs.Wall taken at its arrival.
func (l *SessionLog) Rx(wall time.Duration, seq uint32, cmd protocol.MsgType, bytes int64) {
	l.recordAt(wall, Event{Kind: EvRx, Cmd: cmd, Seq: seq, A: bytes})
}

// Paint records the console applying one command to its frame buffer
// (serviceNs is the modelled service time, 0 without a cost model), at
// wall — the reading of obs.Wall taken when the apply was done.
func (l *SessionLog) Paint(wall time.Duration, seq uint32, cmd protocol.MsgType, serviceNs int64) {
	l.recordAt(wall, Event{Kind: EvPaint, Cmd: cmd, Seq: seq, A: serviceNs})
}

// Status records a console heartbeat.
func (l *SessionLog) Status(lastSeq, dropped uint32) {
	l.record(Event{Kind: EvStatus, Cmd: protocol.TypeStatus, A: int64(lastSeq), B: int64(dropped)})
}

// Nack records a console loss report for sequence range [from, to].
func (l *SessionLog) Nack(from, to uint32) {
	l.record(Event{Kind: EvNack, Cmd: protocol.TypeNack, A: int64(from), B: int64(to)})
}

// Drop records one command lost in transit or shed by the console.
func (l *SessionLog) Drop(seq uint32, cmd protocol.MsgType, bytes int64) {
	l.record(Event{Kind: EvDrop, Cmd: cmd, Seq: seq, A: bytes})
}

// Owe records a fresh paint of pixels owed instead of encoded, with the
// governor's tokens when it was refused.
func (l *SessionLog) Owe(pixels, tokens int64) {
	l.record(Event{Kind: EvOwe, A: pixels, B: tokens})
}

// Events returns the ring's surviving events in time order. A non-zero
// last keeps only events within that window of the newest event.
func (l *SessionLog) Events(last time.Duration) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	head := int(l.n & l.mask)
	evs := make([]Event, 0, min(l.n, uint64(len(l.events))))
	if l.n >= uint64(len(l.events)) {
		evs = append(evs, l.events[head:]...)
	}
	evs = append(evs, l.events[:head]...)
	l.mu.Unlock()
	// Writers read their clocks before taking the lock, so two racing
	// writers can land out of order; sort restores the timeline.
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
	if last > 0 && len(evs) > 0 {
		cut := evs[len(evs)-1].T - last
		i := sort.Search(len(evs), func(i int) bool { return evs[i].T >= cut })
		evs = evs[i:]
	}
	return evs
}

// Recorder owns the per-session rings of one clock domain plus the breach
// policy. The zero value is not usable; call New.
type Recorder struct {
	clock    *obs.Clock
	ringSize int

	enabled   atomic.Bool
	dumpGapNs atomic.Int64
	inputID   atomic.Uint64

	sessions obs.Sessions[SessionLog]

	mu      sync.RWMutex
	dumpDir string
	// hostFn supplies host-runtime evidence (GC pause and CPU-starvation
	// windows in ring time) to breach attribution; nil means no host
	// monitor is wired and verdicts never blame HOST.
	hostFn func(asOf time.Duration) []HostWindow
	// pathFn supplies measured network-path evidence (the netqual
	// estimators) per session; nil means dumps carry no PathEvidence and
	// WIRE verdicts get a LINK sub-verdict only from chain loss evidence.
	pathFn func(session uint32, asOf time.Duration) *PathEvidence

	// Breach accounting, mirrored into an obs registry by Instrument so
	// scrapers (cmd/slimstat) see degradation without reading dumps.
	breaches   *obs.Counter
	dumpErrors *obs.Counter
	lastBreach *obs.Gauge
	breachN    atomic.Int64
}

// New returns an enabled recorder on the domain's clock (obs.NewClock)
// with the default ring size and dump rate limit.
func New(domain obs.Domain) *Recorder { return NewOn(obs.NewClock(domain)) }

// NewOn is New on a clock the caller shares with other observers — how a
// telemetry kit puts a sim-domain recorder, SLO tracker and path estimator
// on one virtual timeline.
func NewOn(clock *obs.Clock) *Recorder {
	r := &Recorder{clock: clock, ringSize: DefaultRingSize}
	r.enabled.Store(true)
	r.dumpGapNs.Store(int64(DefaultDumpGap))
	return r
}

// Instrument resolves the recorder's breach instruments in reg:
// slim_flight_breaches_total, slim_flight_dump_errors_total, and — wall
// domain only — slim_flight_last_breach_unix_ms (sim recorders publish
// slim_flight_last_breach_ns, virtual time).
func (r *Recorder) Instrument(reg *obs.Registry) *Recorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.breaches = reg.Counter("slim_flight_breaches_total")
	r.dumpErrors = reg.Counter("slim_flight_dump_errors_total")
	if r.clock.Domain() == obs.DomainWall {
		r.lastBreach = reg.Gauge("slim_flight_last_breach_unix_ms")
	} else {
		r.lastBreach = reg.Gauge("slim_flight_last_breach_ns")
	}
	return r
}

// SetEnabled switches recording on or off. Disabled, every recording call
// costs one atomic load; the rings are retained.
func (r *Recorder) SetEnabled(on bool) { r.enabled.Store(on) }

// SetDumpGap sets the per-session minimum interval between breach dumps.
func (r *Recorder) SetDumpGap(d time.Duration) { r.dumpGapNs.Store(int64(d)) }

// SetDumpDir sets the directory breach dumps are written to. Empty (the
// default) records breaches in the instruments and the ring but writes no
// files.
func (r *Recorder) SetDumpDir(dir string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dumpDir = dir
}

// DumpDir reports the configured dump directory.
func (r *Recorder) DumpDir() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dumpDir
}

// SetHostEvidence wires a host-runtime monitor into breach attribution: fn
// is called on each breach with the detection time and must return the
// recent GC-pause and CPU-starvation windows on the recorder's clock — a
// host monitor built on the same obs.Clock stamps them there already. With
// evidence wired, a breach whose causal chain overlaps a host window gets
// a HOST verdict instead of blaming an innocent pipeline stage. Nil
// unwires.
func (r *Recorder) SetHostEvidence(fn func(asOf time.Duration) []HostWindow) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hostFn = fn
}

// Session returns the session's log, creating the ring on first use.
func (r *Recorder) Session(id uint32) *SessionLog {
	return r.sessions.Get(id, func() *SessionLog {
		return &SessionLog{
			rec:    r,
			events: make([]Event, r.ringSize),
			mask:   uint64(r.ringSize - 1),
		}
	})
}

// Remove evicts a session's ring — the flight-recorder share of session
// termination. Logs already held by components keep working but are no
// longer reachable or dumped.
func (r *Recorder) Remove(id uint32) { r.sessions.Remove(id) }

// SessionIDs lists the session IDs with live rings, ascending.
func (r *Recorder) SessionIDs() []uint32 { return r.sessions.IDs() }

// Events returns a session's recent events (see SessionLog.Events). An
// unknown session yields nil.
func (r *Recorder) Events(id uint32, last time.Duration) []Event {
	return r.sessions.Lookup(id).Events(last)
}

// BreachCount reports the number of breaches recorded.
func (r *Recorder) BreachCount() int64 { return r.breachN.Load() }
