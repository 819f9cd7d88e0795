// Package console implements the SLIM desktop unit (§2.3): a stateless
// frame buffer on a network. The console runs no operating system and no
// applications; it decodes display commands into pixels, forwards raw input
// to the server, answers liveness probes, and arbitrates downstream
// bandwidth between sessions (§7). Everything it holds is soft state that
// the server can regenerate at any moment.
package console

import (
	"fmt"
	"sync"
	"time"

	"slim/internal/audio"
	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// Config parameterizes a console.
type Config struct {
	// Width and Height give the display geometry. The Sun Ray 1 supported
	// up to 1280x1024 at 76 Hz with 24-bit pixels.
	Width, Height int
	// Costs models the decode hardware; nil means "no modelled delay"
	// (decode at host speed). With the Sun Ray 1 model installed, service
	// times reproduce Table 5 and Figure 7.
	Costs *core.CostModel
	// ReorderWindow is the sequence-gap tolerance before a Nack is sent.
	ReorderWindow uint32
	// TotalBps is the downstream bandwidth the allocator may hand out.
	TotalBps uint64
	// CardToken is the smart card currently inserted, if any.
	CardToken string
	// AudioBuffer enables the audio sink with the given jitter-buffer
	// depth (0 disables audio modelling; blocks are accepted and
	// discarded).
	AudioBuffer time.Duration
	// Obs is the wall-clock registry live metrics publish into
	// (telemetry.Default's if nil). Modelled (virtual-time) observations
	// always go to obs.Sim, never here.
	Obs *obs.Registry
	// Flight is the causal flight recorder the console records the RX,
	// PAINT, and DROP legs of each command's chain into
	// (telemetry.Default's if nil). In-process deployments share one
	// recorder with the server, so both ends of the wire land in one ring.
	Flight *flight.Recorder
	// TileCacheEntries enables the gen-2 content-addressed tile cache;
	// the console then advertises CapCachePaint in its Hello and accepts
	// CACHE_PAINT commands. 0 leaves the console a pure gen-1 frame
	// buffer. The only other value New accepts is
	// core.DefaultTileCacheEntries: the capability bit implies that
	// capacity, the server's encoder mirrors it, and any other one would
	// drift the mirrored LRU orders by construction.
	TileCacheEntries int
}

// Console is one SLIM desktop unit.
type Console struct {
	mu   sync.Mutex
	cfg  Config
	fb   *fb.Framebuffer
	gaps *protocol.GapTracker
	seq  protocol.Sequencer // for console→server messages
	// Modelled clock: when the decode engine becomes free. Commands that
	// arrive while it is busy queue; sustained overload drops commands,
	// which is how §4.3 found the processing limits.
	busyUntil time.Duration
	// QueueLimit bounds modelled decode backlog; beyond it commands drop.
	QueueLimit time.Duration
	dropped    uint64
	applied    uint64
	alloc      *BandwidthAllocator
	sessionID  uint32
	audioSink  *audio.Sink
	metrics    *consoleMetrics
	// cache is the gen-2 tile cache (nil on a gen-1 console); cpPix
	// stages the looked-up pixels between the cache probe in Handle and
	// the frame-buffer blit in applyDisplay.
	cache *core.TileCache
	cpPix []protocol.Pixel
	// flog is the attached session's flight ring (nil while detached),
	// re-resolved whenever the session changes.
	flog *flight.SessionLog
	// feedback is the STATUS cadence state (status.go).
	feedback feedback
}

// New returns a console with the given configuration.
func New(cfg Config) (*Console, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("console: invalid geometry %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.TileCacheEntries != 0 && cfg.TileCacheEntries != core.DefaultTileCacheEntries {
		return nil, fmt.Errorf("console: tile cache of %d entries; the server mirrors %d, so the cache must hold that or be off (0)",
			cfg.TileCacheEntries, core.DefaultTileCacheEntries)
	}
	if cfg.ReorderWindow == 0 {
		cfg.ReorderWindow = 64
	}
	if cfg.TotalBps == 0 {
		cfg.TotalBps = 100_000_000
	}
	if cfg.Obs == nil {
		cfg.Obs = telemetry.Default.Registry
	}
	if cfg.Flight == nil {
		cfg.Flight = telemetry.Default.Flight
	}
	c := &Console{
		cfg:        cfg,
		fb:         fb.New(cfg.Width, cfg.Height),
		gaps:       protocol.NewGapTracker(cfg.ReorderWindow),
		QueueLimit: 500 * time.Millisecond,
		alloc:      NewBandwidthAllocator(cfg.TotalBps),
		metrics:    newConsoleMetrics(cfg.Obs, obs.Sim),
	}
	if cfg.AudioBuffer > 0 {
		c.audioSink = audio.NewSink(cfg.AudioBuffer)
	}
	if cfg.TileCacheEntries > 0 {
		c.cache = core.NewTileCache(core.DefaultTileCacheEntries, true)
	}
	return c, nil
}

// Hello builds the console's boot announcement.
func (c *Console) Hello() *protocol.Hello {
	c.mu.Lock()
	defer c.mu.Unlock()
	var caps uint16
	if c.cache != nil {
		caps |= protocol.CapCachePaint
	}
	return &protocol.Hello{
		Width:     uint16(c.cfg.Width),
		Height:    uint16(c.cfg.Height),
		CardToken: c.cfg.CardToken,
		Caps:      caps,
	}
}

// InsertCard simulates inserting a smart identification card; the returned
// message should be sent to the server to trigger session attach.
func (c *Console) InsertCard(token string) *protocol.SessionConnect {
	c.mu.Lock()
	c.cfg.CardToken = token
	c.mu.Unlock()
	return &protocol.SessionConnect{Token: token}
}

// RemoveCard simulates pulling the card. The display keeps its soft state
// until the server detaches or repaints it; true state lives server side.
func (c *Console) RemoveCard() {
	c.mu.Lock()
	c.cfg.CardToken = ""
	c.mu.Unlock()
}

// SessionID reports the attached session (0 = none).
func (c *Console) SessionID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionID
}

// HandleDatagram processes one datagram received at the modelled time now
// and returns any console→server replies, the delayed-ack STATUS (status.go)
// last among them when one is due. Display commands are applied to the
// local frame buffer; the decode delay model accounts for their cost.
// Batch frames (§5.4 coalesced FILL/COPY runs from the server's flow
// governor) unpack into their member commands, applied in sequence order.
func (c *Console) HandleDatagram(wire []byte, now time.Duration) ([][]byte, error) {
	if !protocol.IsBatch(wire) {
		seq, msg, _, err := protocol.Decode(wire)
		if err != nil {
			return nil, err
		}
		return c.Handle(seq, msg, now)
	}
	seqs, msgs, err := protocol.DecodeBatch(wire)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var replies [][]byte
	for i := 0; i < len(msgs) && err == nil; i++ {
		var rs [][]byte
		rs, err = c.handleLocked(seqs[i], msgs[i], now)
		replies = append(replies, rs...)
	}
	return c.ackLocked(replies, now), err
}

// Handle processes one already-decoded message.
func (c *Console) Handle(seq uint32, msg protocol.Message, now time.Duration) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	replies, err := c.handleLocked(seq, msg, now)
	return c.ackLocked(replies, now), err
}

// handleLocked is Handle without the STATUS rule. Callers hold c.mu.
func (c *Console) handleLocked(seq uint32, msg protocol.Message, now time.Duration) ([][]byte, error) {
	var replies [][]byte
	if msg.Type().IsDisplay() {
		// Two readings of the wall clock time a command: its arrival (the
		// RX stamp and the start of the decode metric) and the end of its
		// apply (the metric's end and the PAINT stamp).
		arrived := obs.Wall.Now()
		if c.flog.Armed() {
			c.flog.Rx(arrived, seq, msg.Type(), int64(protocol.WireSize(msg)))
		}
		c.feedback.arrived = now
		replies = c.nackLocked(replies, c.gaps.Observe(seq))
		if cp, isCP := msg.(*protocol.CachePaint); isCP {
			pix, hit := c.cacheLookup(cp)
			if !hit {
				// Absent entry: treat the datagram as lost. The NACK makes
				// the server forget the key and repaint from its true
				// frame buffer — cached tiles can be dropped at any time
				// without a protocol error, they are soft state like
				// everything else the console holds.
				c.metrics.cacheMisses.Inc()
				if c.flog.Armed() {
					c.flog.Drop(seq, msg.Type(), int64(protocol.WireSize(msg)))
				}
				return c.nackLocked(replies, []protocol.Nack{{From: seq, To: seq}}), nil
			}
			c.metrics.cacheHits.Inc()
			c.cpPix = pix
		}
		svc, ok := c.applyDisplay(msg, now)
		if !ok {
			c.dropped++
			c.metrics.dropped.Inc()
			if c.flog.Armed() {
				c.flog.Drop(seq, msg.Type(), int64(protocol.WireSize(msg)))
			}
			return replies, nil
		}
		c.applied++
		c.metrics.applied.Inc()
		if c.cache != nil {
			// Console half of the mirrored cache-maintenance rule: insert
			// every applied command's whole write-rect tiles (CACHE_PAINT
			// only touches, done at lookup; FILL and CSCS never cache).
			c.cache.NoteApply(c.fb, msg)
		}
		applied := obs.Wall.Now()
		wall := applied - arrived
		c.metrics.decodeSeconds.Observe(wall)
		c.metrics.observeDecodeType(msg.Type(), wall)
		if c.flog.Armed() {
			c.flog.Paint(applied, seq, msg.Type(), svc.Nanoseconds())
		}
		return replies, nil
	}

	switch m := msg.(type) {
	case *protocol.HelloAck:
		// The ack of a Hello with a card trails the SessionAttach and as
		// much of the repaint as left with it. The session is set already;
		// resetting again would discard the tiles that repaint has cached,
		// which the server's mirror counts on from its next piece on.
		if m.SessionID != c.sessionID {
			c.setSession(m.SessionID)
		}
	case *protocol.SessionAttach:
		c.setSession(m.SessionID)
	case *protocol.SessionDetach:
		if c.sessionID == m.SessionID {
			c.alloc.Request(m.SessionID, 0)
			c.sessionID = 0
		}
	case *protocol.Ping:
		pong := &protocol.Pong{Nonce: m.Nonce, Padding: m.Padding}
		replies = append(replies, protocol.Encode(nil, c.seq.Next(), pong))
	case *protocol.BandwidthRequest:
		grants := c.alloc.Request(m.SessionID, m.Bps)
		for _, g := range grants {
			grant := g
			replies = append(replies, protocol.Encode(nil, c.seq.Next(), &grant))
		}
	case *protocol.Audio:
		// Hand samples to the DAC through the jitter buffer, if modelled.
		if c.audioSink != nil {
			return nil, c.audioSink.Submit(m, now)
		}
	case *protocol.Device:
		// Peripheral traffic terminates at the USB hub.
	default:
		return nil, fmt.Errorf("console: unexpected message %v", msg.Type())
	}
	return replies, nil
}

// nackLocked adds a NACK for each lost range to replies. Callers hold c.mu.
func (c *Console) nackLocked(replies [][]byte, lost []protocol.Nack) [][]byte {
	for i := range lost {
		c.metrics.nacks.Inc()
		replies = append(replies, protocol.Encode(nil, c.seq.Next(), &lost[i]))
	}
	return replies
}

// setSession switches the console to a (possibly different) session. Each
// session has its own display sequence space, so the gap tracker resets;
// anything else would nack the jump from the old session's numbering. A
// session that left gives back its bandwidth request, so the allocator
// neither shares the link with it nor re-grants it a share of a link it
// no longer uses (§7). Callers hold c.mu.
func (c *Console) setSession(id uint32) {
	if id != c.sessionID {
		c.gaps = protocol.NewGapTracker(c.cfg.ReorderWindow)
		c.alloc.Request(c.sessionID, 0)
	}
	if c.cache != nil {
		// Every (re)attach starts a fresh tile-cache generation: the
		// server's encoder does the same and immediately repaints, which
		// re-seeds both sides from an identical empty state. Keeping old
		// entries would only desynchronize the mirrored LRU orders.
		c.cache.Reset()
	}
	c.sessionID = id
	if id == 0 {
		c.flog = nil
	} else {
		c.flog = c.cfg.Flight.Session(id)
	}
}

// cacheLookup probes the tile cache for a CACHE_PAINT claim. A gen-1
// console (no cache) can only reach here if a server violates the
// negotiated capability; it answers with the same miss-NACK, which makes
// the server repaint with plain commands — degraded, never wrong.
// Callers hold c.mu.
func (c *Console) cacheLookup(cp *protocol.CachePaint) ([]protocol.Pixel, bool) {
	if c.cache == nil {
		return nil, false
	}
	return c.cache.Lookup(cp.Key, cp.Rect.W, cp.Rect.H)
}

// TileCache exposes the console's gen-2 cache (nil on a gen-1 console)
// for tests and fuzzing.
func (c *Console) TileCache() *core.TileCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache
}

// applyDisplay decodes one display command into the frame buffer,
// returning its modelled service time including queueing (0 without a
// cost model) and whether it was processed (false = dropped due to
// overload or malformed).
func (c *Console) applyDisplay(msg protocol.Message, now time.Duration) (svc time.Duration, ok bool) {
	if c.cfg.Costs != nil {
		start := now
		if c.busyUntil > start {
			start = c.busyUntil
		}
		if start-now > c.QueueLimit {
			return 0, false // decode queue overflow: drop (§4.3)
		}
		c.busyUntil = start + c.cfg.Costs.ServiceTime(msg)
		svc = c.busyUntil - now // queueing + decode = service time
		// Modelled quantities are virtual time: they go to the sim-domain
		// instruments, never the wall-clock ones.
		c.metrics.simService.Observe(svc)
		c.metrics.simBacklogNs.Set(int64(c.busyUntil - now))
	}
	var err error
	if cp, isCP := msg.(*protocol.CachePaint); isCP {
		// The staged cache entry blits straight into the frame buffer;
		// Handle already validated the claim.
		err = c.fb.Set(cp.Rect, c.cpPix)
	} else {
		err = c.fb.Apply(msg)
	}
	if err != nil {
		// Malformed geometry is clipped by fb; real errors are protocol
		// violations we count as drops.
		return 0, false
	}
	return svc, true
}

// KeyInput encodes a keystroke for transmission to the server.
func (c *Console) KeyInput(code uint16, down bool) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return protocol.Encode(nil, c.seq.Next(), &protocol.KeyEvent{Code: code, Down: down})
}

// PointerInput encodes a mouse update for transmission to the server.
func (c *Console) PointerInput(x, y uint16, buttons uint8) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return protocol.Encode(nil, c.seq.Next(), &protocol.PointerEvent{X: x, Y: y, Buttons: buttons})
}

// Status reports what the console's next STATUS would carry.
func (c *Console) Status() *protocol.Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return &protocol.Status{
		LastSeq: c.lastSeqLocked(),
		Dropped: uint32(c.dropped),
	}
}

// Framebuffer exposes the soft display state (for screenshots and tests).
func (c *Console) Framebuffer() *fb.Framebuffer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fb
}

// AudioStats reports audio blocks received and underruns at model time
// now. It returns zeros when audio modelling is disabled.
func (c *Console) AudioStats(now time.Duration) (received, underruns int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.audioSink == nil {
		return 0, 0
	}
	return c.audioSink.Stats(now)
}

// Counters reports applied and dropped display command counts.
func (c *Console) Counters() (applied, dropped uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.applied, c.dropped
}
