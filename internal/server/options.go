package server

import (
	"log/slog"

	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/obs/netqual"
	"slim/internal/obs/slo"
	"slim/internal/par"
)

// Option configures a Server at construction — the only configuration
// path. Options run before the server is instrumented, so redirected
// registries and recorders are in place before the first session resolves
// its instruments.
type Option func(*Server)

// WithRegistry redirects live metrics into r instead of the process-wide
// obs.Default — hermetic tests and virtual-time simulations hand each
// server its own registry.
func WithRegistry(r *obs.Registry) Option {
	return func(s *Server) { s.obs = r }
}

// WithFlightRecorder points the server's causal flight recorder at rec
// instead of flight.Default.
func WithFlightRecorder(rec *flight.Recorder) Option {
	return func(s *Server) { s.flight = rec }
}

// WithSLO points the server's SLO tracker at t instead of slo.Default —
// hermetic tests and virtual-time simulations hand each server its own
// tracker (a sim-domain tracker suppresses the server's wall-clock
// Observe; the harness feeds ObserveAt itself).
func WithSLO(t *slo.Tracker) Option {
	return func(s *Server) { s.slo = t }
}

// WithNetQual points the server's passive path estimation at t instead of
// netqual.Default — hermetic tests and virtual-time simulations hand each
// server its own tracker (sim-domain trackers take explicit clocks from
// the harness). The tracker must still be armed with SetEnabled; the
// option only chooses where estimates live.
func WithNetQual(t *netqual.Tracker) Option {
	return func(s *Server) { s.netqual = t }
}

// WithLogger attaches a structured logger for session lifecycle events:
// attach, detach, terminate, authentication failure, and display-state
// recovery. A nil logger (the default) keeps the hot paths silent — the
// server never logs per-datagram work regardless.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithCalibratedCosts feeds a live cost-model calibrator back into flow
// control: whenever cal produces a new fit (its generation advances), the
// next PumpFlows rebuilds the model and re-derives every governor's
// demand, burst, and supersession threshold from *measured* per-command
// costs instead of the static Table 5 constants. Consoles receive a fresh
// BandwidthRequest when a session's derived demand changes. Pair it with
// a console whose Config.Calibrator is the same calibrator.
func WithCalibratedCosts(cal *core.Calibrator) Option {
	return func(s *Server) { s.cal = cal }
}

// WithParallelEncoding shards large repaint tilings and CSCS strip
// compression in every session's encoder across a bounded worker pool
// (workers <= 0 means GOMAXPROCS) — the §6 SMP-scaling story applied to a
// single session's encode path. The datagram stream is byte-identical to
// serial encoding; only wall-clock time changes, which is why virtual-time
// simulations leave this off.
func WithParallelEncoding(workers int) Option {
	return func(s *Server) { s.encPool = par.New(workers) }
}

// WithCodec2 arms the gen-2 encoder: content-typed tiles plus the
// hash-keyed dirty-tile cache. Armed servers negotiate per attachment —
// the cache engages only for consoles whose Hello advertised
// protocol.CapCachePaint, so a mixed fleet of gen-1 and gen-2 consoles
// shares one server. Cache state never migrates: snapshots rebuild
// encoders fresh, and the attach repaint restarts both sides' caches
// from empty, mirrored.
func WithCodec2() Option {
	return func(s *Server) { s.codec2 = true }
}

// WithSessionIDBase starts the server's session-ID counter at base instead
// of zero. A broker gives each shard a disjoint ID space (shard i issues
// IDs above i<<24) so sessions keep their IDs when they migrate between
// shards and control messages addressed by session ID (BandwidthGrant)
// route unambiguously across the fleet.
func WithSessionIDBase(base uint32) Option {
	return func(s *Server) { s.nextID = base }
}

// Resolved is the subset of option-configured settings a broker needs to
// see before fanning the same option list out to its shards — the shared
// registry its fleet rollup publishes into, and the logger for broker-level
// lifecycle events. Everything else (flow config, SLO tracker, flight
// recorder, parallel encoding) is inherited opaquely by each shard.
type Resolved struct {
	Registry *obs.Registry
	Logger   *slog.Logger
	// NetQual is the path-estimation tracker shards share (nil means
	// netqual.Default) — the broker reads it for per-shard fleet rollups.
	NetQual *netqual.Tracker
}

// ResolveOptions applies opts to a blank server and reports the settings a
// broker inherits at its own level. The options are not consumed: callers
// pass the same list on to every shard they construct.
func ResolveOptions(opts ...Option) Resolved {
	var probe Server
	for _, o := range opts {
		o(&probe)
	}
	return Resolved{Registry: probe.obs, Logger: probe.log, NetQual: probe.netqual}
}

// WithFlowControl enables the grant-driven send governor (§7) for every
// session: display traffic is paced to the console's BandwidthGrant,
// stale queued damage is superseded under backpressure, and NACK
// retransmits are budgeted so replay storms cannot starve fresh paints.
// Zero-value fields take the flow package defaults; a nil cfg.Costs is the
// published Sun Ray 1 model (Table 5).
func WithFlowControl(cfg flow.Config) Option {
	return func(s *Server) {
		cfg.Enabled = true
		s.flowCfg = &cfg
	}
}
