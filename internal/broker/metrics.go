package broker

import (
	"fmt"

	"slim/internal/obs"
)

// metrics is the broker's fleet instrument set: the per-shard session
// rollup (shard-labeled gauges, so one /metrics scrape shows the whole
// fleet's balance), lifecycle counters, and the reattach-latency
// histogram. The shards publish their server-level series into the same
// registry, where they add up as one server's would (slim_sessions is the
// fleet-wide session count).
type metrics struct {
	// shardSessions[i] is shard i's share of slim_sessions
	// (slim_broker_shard_sessions{shard="i"}).
	shardSessions []*obs.Gauge
	// attaches counts fleet attaches (logins and hotdesks); migrations the
	// subset that moved a session between shards.
	attaches   *obs.Counter
	migrations *obs.Counter
	// routed counts fast-path datagrams forwarded without decoding.
	routed *obs.Counter
	// authFailures counts tokens the fleet directory rejected.
	authFailures *obs.Counter
	// reattach is the wall time from card presentation to the attach
	// completing — on a synchronous transport, to the new console fully
	// repainted (§1.1's "seconds" figure). Nil on sim-domain registries:
	// virtual-time harnesses score reattach latency themselves.
	reattach *obs.Histogram
}

func newMetrics(r *obs.Registry, shards int) *metrics {
	m := &metrics{
		shardSessions: make([]*obs.Gauge, shards),
		attaches:      r.Counter("slim_broker_attaches_total"),
		migrations:    r.Counter("slim_broker_migrations_total"),
		routed:        r.Counter("slim_broker_routed_datagrams_total"),
		authFailures:  r.Counter("slim_broker_auth_failures_total"),
	}
	r.Gauge("slim_broker_shards").Set(int64(shards))
	for i := range m.shardSessions {
		m.shardSessions[i] = r.Gauge(fmt.Sprintf(`slim_broker_shard_sessions{shard="%d"}`, i))
	}
	if r.Domain() == obs.DomainWall {
		m.reattach = r.Histogram("slim_broker_reattach_seconds")
	}
	return m
}
