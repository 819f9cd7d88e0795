package server

import (
	"log/slog"

	"slim/internal/flow"
	"slim/internal/obs/telemetry"
)

// Option configures a Server at construction — the only configuration
// path. Options run before the server is instrumented, so a redirected
// telemetry kit is in place before the first session resolves its
// instruments.
type Option func(*Server)

// WithTelemetry points the server at the telemetry kit k instead of
// telemetry.Default: the registry its metrics publish into, and the flight
// recorder, SLO tracker and path estimator its sessions record into.
// Hermetic tests and virtual-time simulations hand each server a kit of
// its own (telemetry.New); a broker's shards all share the caller's kit,
// where their series add up as one server's would.
func WithTelemetry(k *telemetry.Kit) Option {
	return func(s *Server) { s.tel = k }
}

// WithLogger attaches a structured logger for session lifecycle events:
// attach, detach, terminate, authentication failure, and display-state
// recovery. A nil logger (the default) keeps the hot paths silent — the
// server never logs per-datagram work regardless.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithSessionIDBase starts the server's session-ID counter at base instead
// of zero. A broker gives each shard a disjoint ID space (shard i issues
// IDs above i<<24) so sessions keep their IDs, unique fleet-wide, when
// they migrate between shards.
func WithSessionIDBase(base uint32) Option {
	return func(s *Server) { s.nextID = base }
}

// Resolved is the subset of option-configured settings a broker needs to
// see before fanning the same option list out to its shards — the
// telemetry kit whose registry its fleet series publish into beside the
// shards' own, and the logger for broker-level lifecycle events.
// Everything else (the governor's tuning) is inherited opaquely by each
// shard.
type Resolved struct {
	Telemetry *telemetry.Kit
	Logger    *slog.Logger
}

// ResolveOptions applies opts to a blank server and reports the settings a
// broker inherits at its own level. The options are not consumed: callers
// pass the same list on to every shard they construct.
func ResolveOptions(opts ...Option) Resolved {
	probe := Server{tel: telemetry.Default}
	for _, o := range opts {
		o(&probe)
	}
	return Resolved{Telemetry: probe.tel, Logger: probe.log}
}

// WithFlowControl tunes the grant-driven send governor (§7) every session
// has: display traffic is paced to the console's BandwidthGrant by one
// token bucket, a paint the bucket cannot take now is owed instead of
// encoded (Session.render), and the region a session owes its console
// (Session.repay) leaves in the pieces core.Encoder.Repay cuts to the
// tokens, so recovery cannot starve fresh paints and nothing is queued.
// Zero-value fields take the flow package defaults, derived from the
// published Sun Ray 1 cost model (Table 5); a server built without this
// option runs the zero Config.
func WithFlowControl(cfg flow.Config) Option {
	return func(s *Server) { s.flowCfg = cfg }
}
