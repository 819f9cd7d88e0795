// Package flight is the causal flight recorder: an always-on, per-session
// ring buffer of typed protocol events covering the whole display path —
// input received, drawing op submitted, command encoded, transmitted,
// received, decoded, painted — linked into causal chains by the protocol
// sequence numbers that already flow end to end.
//
// The paper's methodology (§3.1, §5) is event-level: every input event and
// display command is timestamped so interactive latency can be decomposed
// after the fact. The aggregate histograms of internal/obs say *that* a
// paint blew past the 150 ms annoyance threshold; the flight recorder says
// *why*, by keeping the last few thousand events of every session in a
// lock-free ring that costs a handful of atomic stores per event when
// enabled and a single atomic load when disabled.
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
// or a sim-domain virtual clock its harness moves. Only sim-domain
// recorders also accept explicit virtual timestamps (RecordAt), so a wall
// ring can never receive virtual time.
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
	// EvInput: an input event (keystroke, pointer update) reached the
	// server. Opens a new causal chain: the event's Cause is the fresh
	// input-chain ID inherited by everything recorded for this session
	// until the next input.
	EvInput Kind = iota + 1
	// EvOp: the application submitted one drawing op to the encoder.
	// A holds a server-defined op code.
	EvOp
	// EvEncode: the encoder lowered an op into one display command and
	// assigned it a sequence number. A = wire bytes, B = pixels touched.
	EvEncode
	// EvTx: the server handed the command to the transport. A = wire bytes.
	EvTx
	// EvRx: the console transport received the command, before decode.
	// A = wire bytes.
	EvRx
	// EvDecode: the console started decoding the command. A = modelled
	// service nanoseconds (0 without a cost model).
	EvDecode
	// EvPaint: the console applied the command to its frame buffer — the
	// pixels are on glass (or were shed: a dropped command records EvDrop
	// instead).
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
	EvOp:     "OP",
	EvEncode: "ENCODE",
	EvTx:     "TX",
	EvRx:     "RX",
	EvDecode: "DECODE",
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
	// RX → DECODE → PAINT for one command across machines, which is what
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

// slot is one ring entry. All fields are atomics so concurrent writers
// (server goroutine, console loop) and snapshot readers never race: the
// version field is a seqlock — odd while a write is in flight, bumped to
// even when the slot is stable — and the payload is packed into five
// words. Claiming distinct indices via the ring cursor means two writers
// only ever collide on a slot when they race a full ring apart; the
// version check makes the reader skip such torn slots.
type slot struct {
	version atomic.Uint64
	t       atomic.Int64
	kcs     atomic.Uint64 // kind<<40 | cmd<<32 | seq
	cause   atomic.Uint64
	a, b    atomic.Int64
}

func (s *slot) store(ev Event) {
	v := s.version.Load()
	s.version.Store(v | 1) // odd: write in progress
	s.t.Store(int64(ev.T))
	s.kcs.Store(uint64(ev.Kind)<<40 | uint64(ev.Cmd)<<32 | uint64(ev.Seq))
	s.cause.Store(ev.Cause)
	s.a.Store(ev.A)
	s.b.Store(ev.B)
	s.version.Store((v | 1) + 1) // even: stable
}

// load copies the slot if it is stable, reporting ok=false for slots that
// are empty, mid-write, or were overwritten during the read.
func (s *slot) load() (Event, bool) {
	v1 := s.version.Load()
	if v1 == 0 || v1&1 == 1 {
		return Event{}, false
	}
	ev := Event{
		T:     time.Duration(s.t.Load()),
		Cause: s.cause.Load(),
		A:     s.a.Load(),
		B:     s.b.Load(),
	}
	kcs := s.kcs.Load()
	ev.Kind = Kind(kcs >> 40)
	ev.Cmd = protocol.MsgType(kcs >> 32)
	ev.Seq = uint32(kcs)
	if s.version.Load() != v1 {
		return Event{}, false
	}
	return ev, true
}

// SessionLog is one session's event ring. The zero value is not usable;
// obtain logs from Recorder.Session. A nil *SessionLog is inert: every
// recording method no-ops, so call sites instrument unconditionally.
type SessionLog struct {
	rec   *Recorder
	mask  uint64
	slots []slot

	cursor atomic.Uint64
	// cause is the session's current input-chain ID (see Event.Cause).
	cause atomic.Uint64
	// lastDumpNs rate-limits breach dumps (recorder-clock nanoseconds).
	lastDumpNs atomic.Int64
}

// Armed reports whether recording is live — the guard call sites use
// before computing anything record-only (wire sizes, pixel counts).
func (l *SessionLog) Armed() bool {
	return l != nil && l.rec.enabled.Load()
}

// push claims the next ring index and writes the event.
func (l *SessionLog) push(ev Event) {
	i := l.cursor.Add(1) - 1
	l.slots[i&l.mask].store(ev)
}

// record stamps one event from the recorder's clock and records it. The
// disabled path is a nil check plus one atomic load.
func (l *SessionLog) record(ev Event) {
	if !l.Armed() {
		return
	}
	ev.T = l.rec.clock.Now()
	if ev.Cause == 0 {
		ev.Cause = l.cause.Load()
	}
	l.push(ev)
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
	l.push(ev)
}

// Input records an input event reaching the server and opens a new causal
// chain, returning the fresh input-chain ID. cmd is TypeKey or
// TypePointer; arg carries the key code or packed pointer position.
func (l *SessionLog) Input(cmd protocol.MsgType, arg int64) uint64 {
	if !l.Armed() {
		return 0
	}
	id := l.rec.inputID.Add(1)
	l.cause.Store(id)
	l.record(Event{Kind: EvInput, Cmd: cmd, Cause: id, A: arg})
	return id
}

// Op records one drawing op submitted to the encoder (code is
// caller-defined).
func (l *SessionLog) Op(code int64) {
	l.record(Event{Kind: EvOp, A: code})
}

// Encode records one display command leaving the encoder.
func (l *SessionLog) Encode(seq uint32, cmd protocol.MsgType, bytes, pixels int64) {
	l.record(Event{Kind: EvEncode, Cmd: cmd, Seq: seq, A: bytes, B: pixels})
}

// Tx records one command handed to the transport.
func (l *SessionLog) Tx(seq uint32, cmd protocol.MsgType, bytes int64) {
	l.record(Event{Kind: EvTx, Cmd: cmd, Seq: seq, A: bytes})
}

// Rx records one command received by the console transport.
func (l *SessionLog) Rx(seq uint32, cmd protocol.MsgType, bytes int64) {
	l.record(Event{Kind: EvRx, Cmd: cmd, Seq: seq, A: bytes})
}

// Decode records the console decoding one command (serviceNs is the
// modelled decode time, 0 without a cost model).
func (l *SessionLog) Decode(seq uint32, cmd protocol.MsgType, serviceNs int64) {
	l.record(Event{Kind: EvDecode, Cmd: cmd, Seq: seq, A: serviceNs})
}

// Paint records the console applying one command to its frame buffer.
func (l *SessionLog) Paint(seq uint32, cmd protocol.MsgType) {
	l.record(Event{Kind: EvPaint, Cmd: cmd, Seq: seq})
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
	end := l.cursor.Load()
	n := end
	if n > uint64(len(l.slots)) {
		n = uint64(len(l.slots))
	}
	evs := make([]Event, 0, n)
	for i := end - n; i < end; i++ {
		if ev, ok := l.slots[i&l.mask].load(); ok && ev.Kind != 0 {
			evs = append(evs, ev)
		}
	}
	// Writers racing the snapshot can leave the tail slightly out of
	// order; sort restores the timeline.
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
			rec:   r,
			mask:  uint64(r.ringSize - 1),
			slots: make([]slot, r.ringSize),
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
