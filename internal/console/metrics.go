package console

import (
	"fmt"
	"time"

	"slim/internal/obs"
	"slim/internal/protocol"
)

// consoleMetrics is the desktop unit's live instrument set. Wall-clock
// observations (real decode+paint time on this host) go to the wall
// registry; modelled quantities from the Sun Ray cost model (virtual
// service time, virtual decode backlog) go to the process-wide sim
// registry so the two clock domains never share a histogram.
type consoleMetrics struct {
	// applied / dropped count display commands decoded vs shed under
	// overload (§4.3); nacks counts loss-recovery requests sent upstream.
	applied *obs.Counter
	dropped *obs.Counter
	nacks   *obs.Counter
	// decodeSeconds is the real wall time from one display command's
	// arrival to its apply into the frame buffer (sequence tracking and
	// the tile-cache probe included) — the console half of the
	// input-to-paint pipeline on asynchronous transports. decodeByType
	// splits the same observations per command, across the full display
	// range including the gen-2 CACHE_PAINT, which gets its own bucket:
	// a cache-hit apply is a small blit, and folding it into the class
	// of the command that originally painted the pixels would drag that
	// class's distribution toward zero.
	decodeSeconds *obs.Histogram
	decodeByType  [protocol.TypeCachePaint + 1]*obs.Histogram
	// cacheHits / cacheMisses count CACHE_PAINT claims against the
	// console's tile cache; a miss becomes a targeted NACK.
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// simService is the modelled per-command service time (Figure 7's
	// distribution) when a cost model is installed; simBacklogNs is the
	// modelled decode backlog. Both are virtual time, hence DomainSim.
	simService   *obs.Histogram
	simBacklogNs *obs.Gauge
}

func newConsoleMetrics(wall, sim *obs.Registry) *consoleMetrics {
	obs.MustSim(sim)
	m := &consoleMetrics{
		applied:       wall.Counter("slim_console_applied_total"),
		dropped:       wall.Counter("slim_console_dropped_total"),
		nacks:         wall.Counter("slim_console_nacks_total"),
		decodeSeconds: wall.Histogram("slim_console_decode_seconds"),
		simService:    sim.Histogram("slim_sim_console_service_seconds"),
		simBacklogNs:  sim.Gauge("slim_sim_console_backlog_ns"),
	}
	for t := protocol.TypeSet; t <= protocol.TypeCSCS; t++ {
		m.decodeByType[t] = wall.Histogram(
			fmt.Sprintf("slim_console_decode_seconds{cmd=%q}", t.String()))
	}
	m.decodeByType[protocol.TypeCachePaint] = wall.Histogram(
		fmt.Sprintf("slim_console_decode_seconds{cmd=%q}", protocol.TypeCachePaint.String()))
	m.cacheHits = wall.Counter("slim_console_cache_hits_total")
	m.cacheMisses = wall.Counter("slim_console_cache_misses_total")
	return m
}

// observeDecodeType records the wall decode time under the per-command
// histogram; non-display types are ignored.
func (m *consoleMetrics) observeDecodeType(t protocol.MsgType, d time.Duration) {
	if t.IsDisplay() {
		m.decodeByType[t].Observe(d)
	}
}
