// Package flow is the per-session send governor: the piece that closes the
// loop between the console's §7 bandwidth allocator and the server's
// encoder. The console measures its own decode capacity and the fabric's
// share and answers BandwidthRequests with BandwidthGrants; this package
// makes the server honor them.
//
// The governor is a token bucket (bytes; refilled at the granted bps, as
// deep as a burst) and holds no commands. It paces from its first byte:
// a new governor holds a full burst and refills at InitialBps, the demand
// its attach is about to request, until the console's first grant names
// the rate; a grant only changes the rate. So a first attach, a restored
// screen and a migrated one are paid like any other debt.
//
// Before a fresh paint is encoded the session asks Admit whether the
// bucket can take it now; an admitted paint is encoded and sent in the
// same call, and Submit charges its wire bytes to the bucket. A paint
// refused is not encoded at all: the session applies it to its frame
// buffer and owes the console its rect (server.Session's damage), paid
// later from the pixels as they are then — §2.2's "the server need only
// send the latest state". So a governed session sends or owes; it never
// queues. The burst depth defaults to what the Table-5 cost model says the
// console can decode in one short quantum, so pacing never starves a
// console that could have kept up.
//
// What a console is owed leaves through the same bucket: server.Session.repay
// hands the tokens it holds to core.Encoder.Repay as a byte budget, and the
// encoder, which knows what a tile costs, cuts the piece that fits. So
// recovery traffic competes with interactive traffic (§5) only for the
// bytes the grant has to give. The governor only accounts: Item.Retransmit
// marks repayment.
//
// The governor is clock-agnostic: every method takes the current time as a
// time.Duration offset, so the same code paces wall-clock transports (udp,
// fabric) and virtual-time simulations (netsim-style RecordAt pacing).
// Callers serialize access; the server's session lock already does.
package flow

import (
	"math"
	"time"

	"slim/internal/core"
	"slim/internal/protocol"
)

// Config tunes one session's governor. The zero value plus withDefaults
// is a working configuration.
type Config struct {
	// Enabled is not read: every session a server holds is governed, and
	// server.WithFlowControl only tunes its governor. bench/replay.go still
	// sets it.
	Enabled bool
	// InitialBps is the demand the server requests from the console's
	// allocator at session attach, and the rate the governor paces at
	// until the first grant arrives: what the attach asks for is what it
	// sends at meanwhile. 0 derives it from the cost model
	// (DefaultDemandBps).
	InitialBps uint64
	// BurstBytes is the token-bucket depth. 0 derives it from the cost
	// model (DefaultBurst).
	BurstBytes int
}

const (
	// burstCeiling caps DefaultBurst, and is the most a paint may overdraw
	// the bucket by: Admit takes any paint up to it while no debt is
	// outstanding, so a frame larger than the burst is sent, not owed
	// forever.
	burstCeiling = 64 << 10

	// utilizationWindow is the accounting window behind the
	// slim_flow_grant_utilization gauge.
	utilizationWindow = time.Second

	// MinGrantBps is the least rate the bucket refills at, a kilobyte a
	// second: a grant below it, such as the zero fair share of a console
	// with nothing left to give (§7), neither floods the console's link
	// nor stops the session — what it owes is paid a tile a second.
	MinGrantBps = 8000
)

// demandRefPixels is the reference command for cost-model-derived
// defaults: a 256-pixel SET strip, the dominant command of interactive
// traffic (§4.2), carrying 3 wire bytes per pixel plus framing.
const (
	demandRefPixels    = 256
	demandRefWireBytes = 3*demandRefPixels + 16
)

// refService is the Sun Ray 1's decode time for the reference strip
// (Table 5).
func refService() time.Duration {
	return core.SunRay1Costs().ServiceTime(&protocol.Set{Rect: protocol.Rect{W: demandRefPixels, H: 1}})
}

// DefaultDemandBps estimates a session's bandwidth demand from Table 5:
// the wire rate at which reference SET strips arrive exactly as fast as
// the console can decode them. Requesting more than this is pointless —
// the decode queue, not the link, becomes the bottleneck (§4.3's
// saturation methodology).
func DefaultDemandBps() uint64 {
	cmdsPerSec := float64(time.Second) / float64(refService())
	return uint64(cmdsPerSec * demandRefWireBytes * 8)
}

// DefaultBurst derives the token-bucket depth from Table 5: the wire
// bytes of the commands the console can decode in one 5 ms quantum,
// clamped to [8 KiB, 64 KiB]. A burst the console cannot decode would only
// move the backlog from the server (where a paint that does not fit is
// owed and repainted late) to the console (where it ages into decode
// drops).
func DefaultBurst() int {
	cmds := float64(5*time.Millisecond) / float64(refService())
	return min(max(int(cmds*demandRefWireBytes), 8<<10), burstCeiling)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.InitialBps == 0 {
		c.InitialBps = DefaultDemandBps()
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = DefaultBurst()
	}
	return c
}

// Item is one display command charged to the governor.
type Item struct {
	// Seq and Cmd are not read by the governor; bench/replay.go sets them.
	Seq uint32
	Cmd protocol.MsgType
	// Deprecated: Buf is always nil and never read; bench/replay.go sets it
	// from core.Datagram.Buf.
	Buf any
	// Msg is the decoded command; its wire size stands in for Wire's when
	// Wire is nil.
	Msg protocol.Message
	// Wire is the framed datagram (may be nil in simulations that only
	// account bytes; then the wire size is computed from Msg).
	Wire []byte
	// Retransmit marks a repaint that pays the session's debt to its
	// console (loss recovery, attach) for accounting.
	Retransmit bool
}

// Bytes reports the item's wire size.
func (it Item) Bytes() int {
	if it.Wire != nil {
		return len(it.Wire)
	}
	if it.Msg != nil {
		return protocol.WireSize(it.Msg)
	}
	return 0
}

// Packet is never produced (Release returns none); bench/replay.go reads it.
type Packet struct {
	Items []Item
}

// SubmitResult is always zero: nothing is queued, superseded or evicted.
// Its fields stay declared because bench/replay.go still reads them.
type SubmitResult struct {
	Superseded, Evicted []Item
	Depth               int
}

// Governor paces one session's display stream to its bandwidth grant.
// Methods are not safe for concurrent use; callers serialize (the server's
// session lock does).
type Governor struct {
	cfg Config
	m   *Metrics

	grant  uint64 // the console's grant in bps; InitialBps until one arrives
	tokens float64
	primed bool
	last   time.Duration

	winStart time.Duration
	winBytes int64

	// measuredBps is the wire send rate observed over the last completed
	// utilizationWindow — bytes the session *actually* put on the wire.
	// With the gen-2 codec a cache-heavy session sends a fraction of its
	// cost-model demand, and this measurement is what lets DemandBps hand
	// the freed budget back to the console's allocator. demandKnown
	// distinguishes "no window completed yet" (demand unknown, claim the
	// ceiling) from "a window completed idle" (demand genuinely near zero).
	measuredBps uint64
	demandKnown bool

	// pacedBytes/pacedRetransBytes count wire bytes this governor has
	// charged since creation, split into fresh display traffic and debt
	// repayment.
	pacedBytes        int64
	pacedRetransBytes int64
}

// NewGovernor returns a governor with cfg (zero fields defaulted),
// reporting into m (nil is inert): a full bucket, refilled at InitialBps
// until SetGrant.
func NewGovernor(cfg Config, m *Metrics) *Governor {
	cfg = cfg.withDefaults()
	return &Governor{cfg: cfg, m: m, grant: cfg.InitialBps, tokens: float64(cfg.BurstBytes)}
}

// Config reports the governor's effective (defaulted) configuration.
func (g *Governor) Config() Config { return g.cfg }

// Grant reports the console's last grant in bits per second, InitialBps
// before the first. The bucket refills at no less than MinGrantBps.
func (g *Governor) Grant() uint64 { return g.grant }

// bytesPerSecond is the bucket's refill rate.
func (g *Governor) bytesPerSecond() float64 {
	return float64(max(g.grant, MinGrantBps)) / 8
}

// QueueDepth is always 0: nothing is queued. Only bench/replay.go calls it.
func (g *Governor) QueueDepth() int { return 0 }

// PacedBytes reports the cumulative wire bytes this governor has charged:
// total includes every send; retrans is the debt-repayment subset.
func (g *Governor) PacedBytes() (total, retrans int64) {
	return g.pacedBytes, g.pacedRetransBytes
}

// DemandBps reports the session's bandwidth demand at now: the
// cost-model ceiling (InitialBps, what the console could decode) capped
// at roughly twice the measured send rate, floored at ceiling/8. Before
// the first measurement window completes the ceiling stands unmodified —
// a new attachment is about to receive a full repaint and must not start
// throttled. The 2× headroom lets a session that suddenly turns busy
// (cache gone cold, window switch) ramp within one window instead of
// deadlocking on a grant sized to its idle traffic; the floor keeps a
// fully idle session reachable at interactive latency. The server
// re-announces this value to the console's §7 allocator when it moves, so
// gen-2 cache hits — bytes that never leave the server — free grant
// budget for the console's other sessions. Asking closes a measurement
// window that now has completed, so an idle session's demand falls
// without anything being sent.
func (g *Governor) DemandBps(now time.Duration) uint64 {
	g.refill(now)
	ceil := g.cfg.InitialBps
	if !g.demandKnown {
		return ceil
	}
	return min(max(2*g.measuredBps, ceil/8), ceil)
}

// SetGrant applies a console BandwidthGrant: the bucket refills at bps
// (at least MinGrantBps) from now on; the tokens it holds are unchanged.
func (g *Governor) SetGrant(now time.Duration, bps uint64) {
	g.refill(now)
	g.grant = bps
	g.m.grantBps(int64(bps))
}

// refill accrues tokens for the time since the last call, and closes the
// measurement window when it has run its length.
func (g *Governor) refill(now time.Duration) {
	if !g.primed {
		g.primed = true
		g.last = now
		g.winStart = now
		return
	}
	dt := now - g.last
	if dt <= 0 {
		return
	}
	g.last = now
	if elapsed := now - g.winStart; elapsed >= utilizationWindow {
		g.m.utilization(g.winBytes, g.grant, elapsed)
		g.measuredBps = uint64(float64(g.winBytes*8) / elapsed.Seconds())
		g.demandKnown = true
		g.winStart = now
		g.winBytes = 0
	}
	g.tokens = min(g.tokens+g.bytesPerSecond()*dt.Seconds(), float64(g.cfg.BurstBytes))
}

// Admit reports whether a fresh paint whose encoding is at most bound wire
// bytes may be encoded and sent now: when the tokens cover bound, or when
// no debt is outstanding (tokens ≥ 0) and bound is at most burstCeiling —
// a paint larger than what the bucket holds overdraws it once and the next
// waits for the grant to pay that back. A refusal is counted; the caller
// owes the paint instead.
func (g *Governor) Admit(now time.Duration, bound int) bool {
	g.refill(now)
	if float64(bound) <= g.tokens || g.tokens >= 0 && bound <= burstCeiling {
		return true
	}
	g.m.owedInc()
	return false
}

// Submit charges one display command the caller is sending now to the
// bucket and to the accounting. It never holds the command.
func (g *Governor) Submit(now time.Duration, it Item) SubmitResult {
	g.refill(now)
	bytes := it.Bytes()
	g.tokens -= float64(bytes)
	g.m.released(int64(bytes), it.Retransmit)
	g.winBytes += int64(bytes)
	g.pacedBytes += int64(bytes)
	if it.Retransmit {
		g.pacedRetransBytes += int64(bytes)
	}
	return SubmitResult{}
}

// Release returns nil: Submit sends. Only bench/replay.go calls it.
func (g *Governor) Release(time.Duration) []Packet { return nil }

// NextRelease reports nothing pending. Only bench/replay.go calls it.
func (g *Governor) NextRelease(time.Duration) (time.Duration, bool) { return 0, false }

// Tokens reports the whole bytes the bucket holds at now: negative while a
// paint that overdrew it is being paid back.
func (g *Governor) Tokens(now time.Duration) int {
	g.refill(now)
	return int(g.tokens)
}

// ReadyAt reports the instant the bucket will hold n bytes: now if it does
// already.
func (g *Governor) ReadyAt(now time.Duration, n int) time.Duration {
	g.refill(now)
	if g.tokens >= float64(n) {
		return now
	}
	return now + time.Duration(math.Ceil((float64(n)-g.tokens)/g.bytesPerSecond()*float64(time.Second)))
}

// Reset starts the measured-demand window afresh — the attach path calls
// it when a session moves to a new console: the old console's traffic
// pattern says nothing about the new attachment, and the repaint about to
// go out deserves the full cost-model demand.
func (g *Governor) Reset(now time.Duration) {
	g.refill(now)
	g.measuredBps = 0
	g.demandKnown = false
	g.winStart = now
	g.winBytes = 0
}
