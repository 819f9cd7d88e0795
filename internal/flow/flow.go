// Package flow is the per-session send governor: the piece that closes the
// loop between the console's §7 bandwidth allocator and the server's
// encoder. The console measures its own decode capacity and the fabric's
// share and answers BandwidthRequests with BandwidthGrants; this package
// makes the server honor them.
//
// The governor sits between the encoder and the transport and does two
// things:
//
//   - Paces: a token-bucket (bytes; refilled at the granted bps) releases
//     queued display commands so the session never exceeds its grant. The
//     burst depth defaults to what the Table-5 cost model says the console
//     can decode in one short quantum, so pacing never starves a console
//     that could have kept up.
//   - Admits: before a fresh paint is encoded the session asks Admit
//     whether the queue can take it now — less than a burst queued and
//     room for its wire bound. A paint refused is not encoded at all: the
//     session applies it to its frame buffer and owes the console its
//     rect (server.Session's damage), paid later from the pixels as they
//     are then — §2.2's "the server need only send the latest state",
//     decided before encode, so nothing encoded is ever dropped here.
//
// What a console is owed is a region the session keeps, offered in
// burst-sized pieces only while this queue is short, so repayment is paced
// by the one token bucket everything else leaves through and a fresh paint
// never queues behind more than a burst of it (§5's observation that
// recovery traffic competes with interactive traffic). The governor only
// accounts: Item.Retransmit marks repayment.
//
// Released commands leave one Packet each, at their plain-framed size;
// packing a burst of them into §5.4 frames is the socket endpoint's job
// (protocol.PackFrame), so tokens are an upper bound on wire bytes.
//
// The governor is clock-agnostic: every method takes the current time as a
// time.Duration offset, so the same code paces wall-clock transports (udp,
// fabric) and virtual-time simulations (netsim-style RecordAt pacing).
// Callers serialize access; the server's session lock already does.
package flow

import (
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
	// MaxQueueBytes bounds what Admit lets into the send queue: a fresh
	// paint whose wire bound would take the queue past it is owed instead.
	// 0 means DefaultMaxQueueBytes.
	MaxQueueBytes int
	// Costs is the console cost model behind the derived defaults
	// (nil means core.SunRay1Costs).
	Costs *core.CostModel
}

// Tuning defaults. See Config.
const (
	DefaultMaxQueueBytes = 256 << 10

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
// move the queue from the server (where a paint that does not fit is owed
// and repainted late) to the console (where it ages into decode drops).
func DefaultBurst(cm *core.CostModel) int {
	if cm == nil {
		cm = core.SunRay1Costs()
	}
	svc := cm.ServiceTime(&protocol.Set{Rect: protocol.Rect{W: demandRefPixels, H: 1}})
	if svc <= 0 {
		return 64 << 10
	}
	cmds := float64(5*time.Millisecond) / float64(svc)
	b := int(cmds * demandRefWireBytes)
	if b < 8<<10 {
		b = 8 << 10
	}
	if b > 64<<10 {
		b = 64 << 10
	}
	return b
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
	if c.MaxQueueBytes == 0 {
		c.MaxQueueBytes = DefaultMaxQueueBytes
	}
	return c
}

// Item is one display command offered to the governor.
type Item struct {
	// Seq and Cmd identify the command for flight recording and for the
	// encoder's sent log.
	Seq uint32
	Cmd protocol.MsgType
	// Msg is the decoded command; its wire size stands in for Wire's when
	// Wire is nil.
	Msg protocol.Message
	// Wire is the framed datagram (may be nil in simulations that only
	// account bytes; then the wire size is computed from Msg).
	Wire []byte
	// Buf is the pooled buffer backing Wire, nil when the wire is unpooled.
	// The item owns it through the queue; the governor never releases it —
	// items leaving the governor (released, or dropped by Reset) hand it
	// back to the caller, who releases after the send or the drop
	// accounting.
	Buf *wirebuf.Buf
	// Retransmit marks a repaint that pays the session's debt to its
	// console (loss recovery, attach) for accounting.
	Retransmit bool
}

// ReleaseWire returns the item's pooled wire buffer to the pool (a no-op
// for unpooled items).
func (it *Item) ReleaseWire() {
	if it.Buf != nil {
		it.Buf.Release()
		it.Buf = nil
		it.Wire = nil
	}
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

// Packet is one command released by the governor.
type Packet struct {
	// Wire is the bytes to hand to the transport (nil when the item was
	// submitted without wire framing).
	Wire []byte
	// Items is the one command Wire carries.
	Items []Item
}

// SubmitResult reports what Submit did with an item.
type SubmitResult struct {
	// Pass means the governor is ungoverned (no grant yet, or flow
	// disabled at this layer) and the caller should send the item
	// directly, bypassing the queue.
	Pass bool
	// Superseded and Evicted are never set: nothing queued is dropped
	// (a paint the queue cannot take is owed before it is encoded; see
	// Admit). They stay declared because bench/replay.go, frozen outside
	// benchmark PRs, still reads them.
	Superseded, Evicted []Item
	// Depth is the queue depth after the submit (0 on the Pass path).
	Depth int
}

// entry is one queued item plus its enqueue time (for the pacing-delay
// histogram and utilization accounting).
type entry struct {
	it Item
	at time.Duration
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

	queue      []entry
	queueBytes int
	dropped    []Item // Reset's reusable return slab

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
	// handed to the transport since creation — both paced releases and
	// ungoverned pass-throughs — split into fresh display traffic and
	// debt repayment. The netqual estimator compares them
	// against console-acknowledged bytes to derive delivered goodput.
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
// Explicitly configured values are preserved.
// Queued traffic and grants are untouched; only pacing arithmetic changes.
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

// QueueDepth reports the number of queued commands.
func (g *Governor) QueueDepth() int { return len(g.queue) }

// QueueBytes reports the queued wire bytes.
func (g *Governor) QueueBytes() int { return g.queueBytes }

// PacedBytes reports the cumulative wire bytes this governor has handed
// to the transport: total includes every release and ungoverned
// pass-through; retrans is the debt-repayment subset. Delivered goodput is
// estimated by comparing total against console-acknowledged bytes.
func (g *Governor) PacedBytes() (total, retrans int64) {
	return g.pacedBytes, g.pacedRetransBytes
}

// DemandBps reports the session's current bandwidth demand: the
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
// budget for the console's other sessions.
func (g *Governor) DemandBps() uint64 {
	ceil := g.cfg.InitialBps
	if !g.demandKnown {
		return ceil
	}
	d := 2 * g.measuredBps
	if floor := ceil / 8; d < floor {
		d = floor
	}
	if d > ceil {
		d = ceil
	}
	return d
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

// refill accrues tokens for the time since the last call.
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
// bytes may be encoded now: always for an ungoverned session, under a grant
// only while less than a burst is queued and the paint fits under
// MaxQueueBytes. A refusal is counted; the caller owes the paint instead.
func (g *Governor) Admit(bound int) bool {
	if g.rate == 0 || g.queueBytes < g.cfg.BurstBytes && g.queueBytes+bound <= g.cfg.MaxQueueBytes {
		return true
	}
	g.m.owedInc()
	return false
}

// Submit offers one display command. Ungoverned sessions pass straight
// through (zero allocations); governed ones enqueue it for Release.
func (g *Governor) Submit(now time.Duration, it Item) SubmitResult {
	g.refill(now)
	g.m.submittedInc()
	if g.rate == 0 {
		g.account(int64(it.Bytes()), it.Retransmit)
		return SubmitResult{Pass: true}
	}
	g.queue = append(g.queue, entry{it: it, at: now})
	g.queueBytes += it.Bytes()
	g.m.queue(len(g.queue), g.queueBytes)
	return SubmitResult{Depth: len(g.queue)}
}

// Release returns the commands the grant allows to leave now, in sequence
// order, one Packet each.
func (g *Governor) Release(now time.Duration) []Packet {
	g.refill(now)
	if len(g.queue) == 0 {
		return nil
	}
	n := 0
	burst := float64(g.cfg.BurstBytes)
	for _, e := range g.queue {
		cost := float64(e.it.Bytes())
		if g.rate != 0 && g.tokens < cost && g.tokens < burst {
			// Not enough tokens — and the bucket is not full, so waiting
			// will help. (A command larger than the whole burst goes out
			// when the bucket is full, driving tokens negative: an
			// oversized command must not stall forever.)
			break
		}
		if g.rate != 0 {
			g.tokens -= cost
		}
		g.account(int64(cost), e.it.Retransmit)
		g.m.pacingDelayed(now - e.at)
		n++
	}
	if n == 0 {
		return nil
	}
	// One backing array serves every packet's one-item list.
	pkts, items := make([]Packet, n), make([]Item, n)
	for i, e := range g.queue[:n] {
		items[i] = e.it
		pkts[i] = Packet{Wire: e.it.Wire, Items: items[i : i+1 : i+1]}
		g.queueBytes -= e.it.Bytes()
	}
	rest := copy(g.queue, g.queue[n:])
	g.queue = g.queue[:rest]
	g.m.queue(len(g.queue), g.queueBytes)
	return pkts
}

// NextRelease reports when the grant next lets the head of the queue
// leave. ok is false when nothing is queued.
func (g *Governor) NextRelease(now time.Duration) (time.Duration, bool) {
	g.refill(now)
	if len(g.queue) == 0 {
		return 0, false
	}
	cost := float64(g.queue[0].it.Bytes())
	if g.rate == 0 || g.tokens >= cost || g.tokens >= float64(g.cfg.BurstBytes) {
		return now, true
	}
	return now + bytesTime(cost-g.tokens, g.rate), true
}

// bytesTime is how long rate bps takes to move n bytes.
func bytesTime(n float64, rate uint64) time.Duration {
	if rate == 0 {
		return 0
	}
	return time.Duration(n * 8 / float64(rate) * float64(time.Second))
}

// account adds wire bytes handed to the transport to the utilization
// window, the cumulative totals and the metrics.
func (g *Governor) account(bytes int64, retransmit bool) {
	g.m.released(bytes, retransmit)
	g.winBytes += bytes
	g.pacedBytes += bytes
	if retransmit {
		g.pacedRetransBytes += bytes
	}
}

// Reset drops all queued state — the attach path calls it when a session
// moves to a new console, where a full repaint follows anyway. The dropped
// items are returned so the caller can release their wire buffers (and log
// the drops); the slice aliases governor scratch and is valid only until
// the next call. The measured-demand window resets too: the old console's
// traffic pattern says nothing about the new attachment, and the repaint
// about to go out deserves the full cost-model demand.
func (g *Governor) Reset(now time.Duration) []Item {
	g.refill(now)
	g.measuredBps = 0
	g.demandKnown = false
	g.winStart = now
	g.winBytes = 0
	dropped := g.dropped[:0]
	for _, e := range g.queue {
		dropped = append(dropped, e.it)
	}
	g.dropped = dropped
	g.queue = g.queue[:0]
	g.queueBytes = 0
	g.m.queue(0, 0)
	return dropped
}

// Quiesce is Reset plus grant revocation: queued commands are dropped
// (returned for buffer release, like Reset), and the
// granted rate returns to zero so the governor passes traffic ungoverned
// until the next console's BandwidthGrant arrives. The migration path calls
// it on the exporting server — the old console's grant was negotiated for
// the old attachment and must not pace the repaint the importing server
// sends to the new console.
func (g *Governor) Quiesce(now time.Duration) []Item {
	dropped := g.Reset(now)
	g.rate = 0
	g.m.grantBps(0)
	return dropped
}
