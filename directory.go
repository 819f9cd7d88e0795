package slim

import (
	"context"
	"slices"
	"time"

	"slim/internal/broker"
	"slim/internal/server"
)

// Directory is the attach-oriented API surface: the place card tokens are
// enrolled and the place console traffic enters the server side, whether
// that side is one server or a sharded fleet. Both implementations are
// compile-time asserted below:
//
//   - Single wraps an ordinary *Server: one shard, no migration — exactly
//     the behavior slimd ships by default.
//   - Broker fronts N server shards with token-authenticated placement and
//     live hotdesk migration.
//
// Transports only need the narrower SessionHandler subset; Directory adds
// the fleet-management calls (Register/Revoke, Locate, Detach/Terminate).
type Directory interface {
	SessionHandler
	// Register enrolls a card token for a user, fleet-wide.
	Register(tok Token, user string)
	// Revoke withdraws a card token fleet-wide.
	Revoke(tok Token)
	// SessionByUser reports a user's session, wherever it lives (nil if
	// none).
	SessionByUser(user string) *Session
	// Locate reports which shard hosts a user's session (always 0 for a
	// single server; ok is false when the user has no session).
	Locate(user string) (shard int, ok bool)
	// Shards reports the fleet size (1 for a single server).
	Shards() int
	// Sessions reports the fleet-wide live session count.
	Sessions() int
	// Detach pulls a user's session off its console; state persists.
	Detach(user string) error
	// Terminate destroys a user's session and its observability residue.
	Terminate(user string) error
	// Tick drives self-clocked applications (video, animations).
	Tick(now time.Duration) error
}

// Compile-time assertions: both directory implementations really do
// present the same surface.
var (
	_ Directory = Single{}
	_ Directory = (*Broker)(nil)
)

// Single adapts one *Server to the Directory interface — the unsharded
// deployment, unchanged in behavior from the pre-fleet API.
type Single struct {
	*Server
}

// NewSingle wraps an existing server as a Directory.
func NewSingle(s *Server) Single { return Single{Server: s} }

// Register implements Directory on the server's own AuthManager.
func (d Single) Register(tok Token, user string) { d.Server.Auth.Register(tok.String(), user) }

// Revoke implements Directory.
func (d Single) Revoke(tok Token) { d.Server.Auth.Revoke(tok.String()) }

// Locate implements Directory: a single server is shard 0.
func (d Single) Locate(user string) (int, bool) {
	if d.Server.SessionByUser(user) == nil {
		return 0, false
	}
	return 0, true
}

// Shards implements Directory.
func (d Single) Shards() int { return 1 }

// Sessions implements Directory.
func (d Single) Sessions() int { return d.Server.SessionCount() }

// BrokerConfig parameterizes a session-broker fleet.
type BrokerConfig struct {
	// Shards is the fleet size (0 means 1).
	Shards int
	// Routing selects placement: RouteHash (stable, never migrates on its
	// own) or RouteLeastLoaded (fills the emptiest shard and rebalances on
	// hotdesk when its home shard holds at least two more sessions than the
	// emptiest).
	Routing RoutingPolicy
}

// RoutingPolicy selects how a broker places sessions on shards.
type RoutingPolicy = broker.Policy

// Routing policies.
const (
	// RouteHash pins each user to the shard their name hashes to.
	RouteHash = broker.RouteHash
	// RouteLeastLoaded balances by live session count and migrates on
	// hotdesk when the fleet is skewed.
	RouteLeastLoaded = broker.RouteLeastLoaded
)

// Broker is a session-broker fleet: N in-process server shards behind one
// attach point, with token-authenticated placement and live hotdesk
// migration (quiesce → snapshot → replay → redirect; the console stays
// dumb throughout). It implements Directory and the transport-facing
// SessionHandler, so a Fabric or UDP listener drives it exactly like a
// single server.
type Broker struct {
	*broker.Broker
	unbind func() bool // lets go of NewBroker's context
}

// Close marks the broker closed: further messages are rejected, shard
// state is left intact.
func (b *Broker) Close() error {
	b.unbind()
	return b.Broker.Close()
}

// Register implements Directory with a typed token.
func (b *Broker) Register(tok Token, user string) { b.Broker.Register(tok.String(), user) }

// Revoke implements Directory.
func (b *Broker) Revoke(tok Token) { b.Broker.Revoke(tok.String()) }

// NewBroker builds a session-broker fleet sending through one transport.
// Context-first: cancelling ctx closes the broker (sessions persist on
// their shards, as the architecture demands).
//
// Every shard inherits the broker-level options — WithLogger,
// WithTelemetry, WithFlowControl — from the one list passed
// here, so callers stop re-threading them per server. The shards publish
// into the one telemetry kit, so the fleet's series add up there as one
// server's would, and a migrated session resolves the recorder, SLO and
// path state it already has; the broker adds slim_broker_* series with
// shard-labeled session gauges. Only the session-ID base differs per
// shard: shard i issues IDs from a disjoint base so IDs stay unique
// fleet-wide across migrations.
func NewBroker(ctx context.Context, cfg BrokerConfig, t Transport, newApp AppFactory, opts ...ServerOption) (*Broker, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	res := server.ResolveOptions(opts...)
	core, err := broker.New(broker.Config{
		Shards:   cfg.Shards,
		Policy:   cfg.Routing,
		Registry: res.Telemetry.Registry,
		Logger:   res.Logger,
		NewShard: func(i int) *server.Server {
			shardOpts := append(slices.Clip(opts), server.WithSessionIDBase(uint32(i)*broker.ShardIDSpace))
			return server.New(t, newApp, shardOpts...)
		},
	})
	if err != nil {
		return nil, err
	}
	return &Broker{Broker: core, unbind: context.AfterFunc(ctx, func() { core.Close() })}, nil
}
