// Package capture is a wire-level packet capture for SLIM transports.
//
// A Ring is a fixed-size buffer of timestamped datagram records that every
// transport (udp, fabric, netsim) taps on its send and receive paths. The
// paper's Tables 2-4 were produced from exactly this kind of on-the-wire
// trace: per-command counts, byte volumes, and bandwidths measured at the
// interconnect, not inside the server. Captures spool to a versioned
// .slimcap file (see PROTOCOL.md, "Wire captures") that `slimtrace explain`
// decodes back into those tables.
//
// The ring follows the flight-recorder overhead contract: when disabled
// (the default) a tap is a single atomic load and performs no allocation,
// so the capture hooks can stay compiled into every transport's hot path.
// Enabling the ring turns taps into a short critical section that copies
// the datagram into a reused slot buffer. When the ring fills before a
// spool drains it, the newest record is dropped and counted — capture
// never applies backpressure to the transport.
package capture

import (
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// Direction labels which way a datagram was travelling when it was tapped.
type Direction uint8

const (
	// DirDown is server-to-console traffic: display commands, grants' replies.
	DirDown Direction = 1
	// DirUp is console-to-server traffic: input, status, NACKs.
	DirUp Direction = 2
)

func (d Direction) String() string {
	switch d {
	case DirDown:
		return "down"
	case DirUp:
		return "up"
	}
	return "?"
}

// Record is one captured datagram. T is transport time (obs.Wall for live
// transports, virtual time for simulated ones). Wire is the raw
// datagram payload; it is nil for size-only taps (netsim links carry sizes,
// not bytes). Size is the on-the-wire length even when Wire is elided.
type Record struct {
	T       time.Duration
	Dir     Direction
	Flow    int32 // netsim flow id, -1 when unknown
	Size    int
	Console string // remote console address, "" when unknown
	Wire    []byte
}

// Walk splits the record's datagram into protocol messages, calling fn
// with each one's sequence number, the decoded message and the wire bytes
// it is charged: a batch frame's members (each at its plain-framed size),
// or the plain messages laid end to end. It reports whether the datagram
// was a batch frame and how many trailing bytes did not decode — the whole
// datagram when nothing did. A size-only record has nothing to walk.
// Every reader of a capture (BuildReport, TraceEvents, trace.FromCapture,
// netqual.Replay) goes through here, so they agree on what a record holds.
func (rec Record) Walk(fn func(seq uint32, m protocol.Message, size int)) (batch bool, rest int) {
	if protocol.IsBatch(rec.Wire) {
		seqs, msgs, err := protocol.DecodeBatch(rec.Wire)
		if err != nil {
			return true, len(rec.Wire)
		}
		for i, m := range msgs {
			fn(seqs[i], m, protocol.WireSize(m))
		}
		return true, 0
	}
	wire := rec.Wire
	for len(wire) > 0 {
		seq, m, n, err := protocol.Decode(wire)
		if err != nil {
			break
		}
		fn(seq, m, n)
		wire = wire[n:]
	}
	return false, len(wire)
}

// Ring buffers captured records until they are spooled or drained.
// The zero Ring and the nil Ring are valid, permanently-disabled rings.
type Ring struct {
	enabled atomic.Bool

	mu    sync.Mutex
	slots []slot
	head  int // next slot to read
	n     int // buffered records

	records atomic.Uint64
	bytes   atomic.Uint64
	drops   atomic.Uint64

	// Optional obs instruments, resolved once by Instrument.
	mRecords *obs.Counter
	mBytes   *obs.Counter
	mDrops   *obs.Counter
	mEnabled *obs.Gauge
}

// slot is reused storage for one record; wire keeps its capacity across
// generations so a steady-state enabled ring stops allocating.
type slot struct {
	rec  Record
	wire []byte
}

// DefaultSlots is the ring size used by NewRing(0) and the default
// telemetry kit's ring: at a datagram per slot it holds several seconds of typical
// interactive traffic between spools.
const DefaultSlots = 8192

// NewRing returns a disabled ring with the given slot count (0 means
// DefaultSlots).
func NewRing(slots int) *Ring {
	if slots <= 0 {
		slots = DefaultSlots
	}
	return &Ring{slots: make([]slot, slots)}
}

// Instrument resolves the ring's counters and gauges in reg and returns the
// ring. slim_capture_enabled reports the gate so dashboards can tell "no
// traffic" from "not capturing".
func (r *Ring) Instrument(reg *obs.Registry) *Ring {
	if r == nil || reg == nil {
		return r
	}
	r.mRecords = reg.Counter("slim_capture_records_total")
	r.mBytes = reg.Counter("slim_capture_bytes_total")
	r.mDrops = reg.Counter("slim_capture_ring_drops_total")
	r.mEnabled = reg.Gauge("slim_capture_enabled")
	return r
}

// SetEnabled opens or closes the capture gate. Disabling does not discard
// buffered records; they remain spoolable.
func (r *Ring) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled.Store(on)
	if on {
		r.mEnabled.Set(1)
	} else {
		r.mEnabled.Set(0)
	}
}

// Enabled reports whether taps are being recorded. It is the cheap guard
// call sites use so a disabled tap costs one atomic load and never
// evaluates its arguments (in particular, never reads a clock).
func (r *Ring) Enabled() bool { return r != nil && r.enabled.Load() }

// Drops returns the number of records lost to a full ring.
func (r *Ring) Drops() uint64 {
	if r == nil {
		return 0
	}
	return r.drops.Load()
}

// Records returns the total number of records accepted since creation.
func (r *Ring) Records() uint64 {
	if r == nil {
		return 0
	}
	return r.records.Load()
}

// Tap records one datagram with its payload. The payload is copied, so the
// caller may reuse wire immediately. No-op when the ring is disabled.
func (r *Ring) Tap(dir Direction, console string, flow int32, wire []byte, at time.Duration) {
	if !r.Enabled() {
		return
	}
	r.tap(Record{T: at, Dir: dir, Flow: flow, Size: len(wire), Console: console}, wire)
}

// TapSize records a payload-less datagram (size-only transports such as
// netsim links). No-op when the ring is disabled.
func (r *Ring) TapSize(dir Direction, flow int32, size int, at time.Duration) {
	if !r.Enabled() {
		return
	}
	r.tap(Record{T: at, Dir: dir, Flow: flow, Size: size}, nil)
}

func (r *Ring) tap(rec Record, wire []byte) {
	r.mu.Lock()
	if r.n == len(r.slots) {
		r.mu.Unlock()
		r.drops.Add(1)
		r.mDrops.Add(1)
		return
	}
	s := &r.slots[(r.head+r.n)%len(r.slots)]
	s.wire = append(s.wire[:0], wire...)
	s.rec = rec
	if wire != nil {
		s.rec.Wire = s.wire
	} else {
		s.rec.Wire = nil
	}
	r.n++
	r.mu.Unlock()
	r.records.Add(1)
	r.bytes.Add(uint64(rec.Size))
	r.mRecords.Add(1)
	r.mBytes.Add(int64(rec.Size))
}

// Drain removes and returns every buffered record. The returned records own
// their payloads (they are copied out of the ring's reused slots).
func (r *Ring) Drain() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.n)
	for ; r.n > 0; r.n-- {
		s := &r.slots[r.head]
		rec := s.rec
		if s.rec.Wire != nil {
			rec.Wire = append([]byte(nil), s.rec.Wire...)
		}
		out = append(out, rec)
		r.head = (r.head + 1) % len(r.slots)
	}
	r.head = 0
	return out
}

// SpoolTo encodes and removes every buffered record, appending the encoded
// bytes to w (the .slimcap header must already have been written — see
// WriteHeader). Encoding happens under the ring lock; the write itself
// happens after the lock is released so a slow sink never blocks transport
// taps. Returns the number of records spooled.
func (r *Ring) SpoolTo(w interface{ Write([]byte) (int, error) }) (int, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.Lock()
	var scratch []byte
	n := r.n
	for ; r.n > 0; r.n-- {
		scratch = AppendRecord(scratch, r.slots[r.head].rec)
		r.head = (r.head + 1) % len(r.slots)
	}
	r.head = 0
	r.mu.Unlock()
	if len(scratch) == 0 {
		return 0, nil
	}
	_, err := w.Write(scratch)
	return n, err
}
