// Package flow is the per-session send governor: the piece that closes the
// loop between the console's §7 bandwidth allocator and the server's
// encoder. The console measures its own decode capacity and the fabric's
// share and answers BandwidthRequests with BandwidthGrants; this package
// makes the server honor them.
//
// The governor is a token bucket (bytes; refilled at the granted bps, as
// deep as a burst) and holds no commands. Before a fresh paint is encoded
// the session asks Admit whether the bucket can take it now; an admitted
// paint is encoded and sent in the same call, and Submit charges its wire
// bytes to the bucket. A paint refused is not encoded at all: the session
// applies it to its frame buffer and owes the console its rect
// (server.Session's damage), paid later from the pixels as they are then —
// §2.2's "the server need only send the latest state". So a governed
// session sends or owes; it never queues. The burst depth defaults to what
// the Table-5 cost model says the console can decode in one short quantum,
// so pacing never starves a console that could have kept up.
//
// What a console is owed leaves through the same bucket, in pieces cut to
// the tokens it holds (server.Session.repay), so recovery traffic competes
// with interactive traffic (§5) only for the bytes the grant has to give.
// The governor only accounts: Item.Retransmit marks repayment.
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
	"slim/internal/wirebuf"
)

// Config tunes one session's governor. The zero value plus withDefaults
// is a working configuration; Enabled gates whether the server builds
// governors at all.
type Config struct {
	// Enabled turns flow control on. Disabled servers send at wire speed
	// (the pre-governor behavior) and pay nothing.
	Enabled bool
	// InitialBps is the demand the server requests from the console's
	// allocator at session attach, before any grant arrives. 0 derives it
	// from the cost model (DefaultDemandBps).
	InitialBps uint64
	// BurstBytes is the token-bucket depth. 0 derives it from the cost
	// model (DefaultBurst).
	BurstBytes int
	// Costs is the console cost model behind the derived defaults
	// (nil means core.SunRay1Costs).
	Costs *core.CostModel
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
)

// demandRefPixels is the reference command for cost-model-derived
// defaults: a 256-pixel SET strip, the dominant command of interactive
// traffic (§4.2), carrying 3 wire bytes per pixel plus framing.
const (
	demandRefPixels    = 256
	demandRefWireBytes = 3*demandRefPixels + 16
)

// DefaultDemandBps estimates a session's bandwidth demand from the cost
// model: the wire rate at which reference SET strips arrive exactly as
// fast as the console can decode them. Requesting more than this is
// pointless — the decode queue, not the link, becomes the bottleneck
// (§4.3's saturation methodology).
func DefaultDemandBps(cm *core.CostModel) uint64 {
	if cm == nil {
		cm = core.SunRay1Costs()
	}
	svc := cm.ServiceTime(&protocol.Set{Rect: protocol.Rect{W: demandRefPixels, H: 1}})
	if svc <= 0 {
		return 0
	}
	cmdsPerSec := float64(time.Second) / float64(svc)
	return uint64(cmdsPerSec * demandRefWireBytes * 8)
}

// DefaultBurst derives the token-bucket depth from the cost model: the
// wire bytes of the commands the console can decode in one 5 ms quantum,
// clamped to [8 KiB, 64 KiB]. A burst the console cannot decode would only
// move the backlog from the server (where a paint that does not fit is
// owed and repainted late) to the console (where it ages into decode
// drops).
func DefaultBurst(cm *core.CostModel) int {
	if cm == nil {
		cm = core.SunRay1Costs()
	}
	svc := cm.ServiceTime(&protocol.Set{Rect: protocol.Rect{W: demandRefPixels, H: 1}})
	if svc <= 0 {
		return burstCeiling
	}
	cmds := float64(5*time.Millisecond) / float64(svc)
	return min(max(int(cmds*demandRefWireBytes), 8<<10), burstCeiling)
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Costs == nil {
		c.Costs = core.SunRay1Costs()
	}
	if c.InitialBps == 0 {
		c.InitialBps = DefaultDemandBps(c.Costs)
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = DefaultBurst(c.Costs)
	}
	return c
}

// Item is one display command charged to the governor.
type Item struct {
	// Seq, Cmd and Buf are not read by the governor; bench/replay.go sets them.
	Seq uint32
	Cmd protocol.MsgType
	Buf *wirebuf.Buf
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

	rate   uint64 // granted bps; 0 = ungoverned pass-through
	tokens float64
	primed bool
	last   time.Duration

	winStart time.Duration
	winBytes int64

	// measuredBps is the wire send rate observed over the last completed
	// utilizationWindow — bytes the session *actually* put on the wire,
	// paced or pass-through. With the gen-2 codec a cache-heavy session
	// sends a fraction of its cost-model demand, and this measurement is
	// what lets DemandBps hand the freed budget back to the console's
	// allocator. demandKnown distinguishes "no window completed yet"
	// (demand unknown, claim the ceiling) from "a window completed idle"
	// (demand genuinely near zero).
	measuredBps uint64
	demandKnown bool

	// pacedBytes/pacedRetransBytes count wire bytes this governor has
	// charged since creation — paced and ungoverned alike — split into
	// fresh display traffic and debt repayment.
	pacedBytes        int64
	pacedRetransBytes int64

	// autoDemand/autoBurst remember which derived fields were left zero
	// in the caller's Config, so SetCosts can recompute them from a
	// recalibrated cost model without clobbering explicit operator
	// choices.
	autoDemand bool
	autoBurst  bool
}

// NewGovernor returns a governor with cfg (zero fields defaulted),
// reporting into m (nil is inert).
func NewGovernor(cfg Config, m *Metrics) *Governor {
	g := &Governor{
		m:          m,
		autoDemand: cfg.InitialBps == 0,
		autoBurst:  cfg.BurstBytes == 0,
	}
	g.cfg = cfg.withDefaults()
	return g
}

// SetCosts swaps in a new cost model — typically a calibrated fit from
// core.Calibrator — and recomputes every cost-derived parameter the
// caller originally left to the defaults: demand and burst depth.
// Explicitly configured values are preserved, and so are the tokens and
// the grant; only pacing arithmetic changes.
func (g *Governor) SetCosts(cm *core.CostModel) {
	if cm == nil {
		return
	}
	g.cfg.Costs = cm
	if g.autoDemand {
		g.cfg.InitialBps = DefaultDemandBps(cm)
	}
	if g.autoBurst {
		g.cfg.BurstBytes = DefaultBurst(cm)
	}
	g.clamp()
}

// Config reports the governor's effective (defaulted) configuration.
func (g *Governor) Config() Config { return g.cfg }

// Grant reports the granted rate in bits per second (0 = ungoverned).
func (g *Governor) Grant() uint64 { return g.rate }

// QueueDepth is always 0: nothing is queued. Only bench/replay.go calls it.
func (g *Governor) QueueDepth() int { return 0 }

// PacedBytes reports the cumulative wire bytes this governor has charged:
// total includes every paced and ungoverned send; retrans is the
// debt-repayment subset.
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

// SetGrant applies a console BandwidthGrant. The first grant fills the
// token bucket so the session starts with a full burst; later grants only
// change the refill rate.
func (g *Governor) SetGrant(now time.Duration, bps uint64) {
	g.refill(now)
	if g.rate == 0 && bps > 0 {
		g.tokens = float64(g.cfg.BurstBytes)
	}
	g.rate = bps
	g.clamp()
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
		if g.rate != 0 {
			g.m.utilization(g.winBytes, g.rate, elapsed)
		}
		g.measuredBps = uint64(float64(g.winBytes*8) / elapsed.Seconds())
		g.demandKnown = true
		g.winStart = now
		g.winBytes = 0
	}
	if g.rate == 0 {
		return
	}
	g.tokens += float64(g.rate) / 8 * dt.Seconds()
	g.clamp()
}

func (g *Governor) clamp() {
	g.tokens = min(g.tokens, float64(g.cfg.BurstBytes))
}

// Admit reports whether a fresh paint whose encoding is at most bound wire
// bytes may be encoded and sent now: always for an ungoverned session;
// under a grant when the tokens cover bound, or when no debt is
// outstanding (tokens ≥ 0) and bound is at most burstCeiling — a paint
// larger than what the bucket holds overdraws it once and the next waits
// for the grant to pay that back. A refusal is counted; the caller owes
// the paint instead.
func (g *Governor) Admit(now time.Duration, bound int) bool {
	g.refill(now)
	if g.rate == 0 || float64(bound) <= g.tokens || g.tokens >= 0 && bound <= burstCeiling {
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
	if g.rate != 0 {
		g.tokens -= float64(bytes)
	}
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
// paint that overdrew it is being paid back. Ungoverned sends never charge
// the bucket.
func (g *Governor) Tokens(now time.Duration) int {
	g.refill(now)
	return int(g.tokens)
}

// ReadyAt reports the instant the bucket will hold n bytes: now if it does
// already, or if the session is ungoverned.
func (g *Governor) ReadyAt(now time.Duration, n int) time.Duration {
	g.refill(now)
	if g.rate == 0 || g.tokens >= float64(n) {
		return now
	}
	return now + time.Duration(math.Ceil((float64(n)-g.tokens)*8/float64(g.rate)*float64(time.Second)))
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
