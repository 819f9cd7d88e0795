// Package obs is the runtime observability layer: live counters, gauges,
// and latency histograms for every hot path in a SLIM deployment. The
// paper's whole contribution is a measurement methodology for interactive
// performance (§3, §5); this package makes the same quantities visible
// while the system runs instead of only in post-run reports.
//
// Design constraints, in order:
//
//   - The hot paths (encoder emit, transport send/recv, console decode)
//     must pay only atomic operations — no locks, no allocation, no map
//     lookups. Components therefore resolve metric pointers once at
//     construction time and hold them in struct fields.
//   - Everything is stdlib: exposition is Prometheus text and expvar-style
//     JSON over net/http, written by hand.
//   - Wall-clock and simulated-clock observations must never mix: a
//     Registry is created in exactly one clock domain, and instrument
//     helpers refuse a registry from the wrong domain.
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Domain is the clock domain a registry's observations come from. The
// simulator (internal/netsim, the sharing experiments) measures in virtual
// time; the live daemon measures in wall time. A histogram fed from both
// would be meaningless, so the domain is fixed per registry.
type Domain string

// The two clock domains.
const (
	DomainWall Domain = "wall"
	DomainSim  Domain = "sim"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (queue depth, session count).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value reports the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics in one clock domain. The
// zero-value is not usable; call NewRegistry. Lookup methods get-or-create,
// so concurrent registration of the same name yields one shared metric.
type Registry struct {
	domain Domain

	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Sim is the process-wide simulated-clock registry; netsim links report
// here, and the debug endpoint exposes it alongside the default telemetry
// kit's wall registry (internal/obs/telemetry).
var Sim = NewRegistry(DomainSim)

// NewRegistry returns an empty registry in the given clock domain.
func NewRegistry(d Domain) *Registry {
	return &Registry{
		domain:     d,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Domain reports the registry's clock domain.
func (r *Registry) Domain() Domain { return r.domain }

// resolve is the get-or-create behind Counter, Gauge and Histogram: a read
// lock for the common hit, the write lock and a second look only to create.
func resolve[T any](r *Registry, m map[string]*T, name string, create func() *T) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := m[name]; ok {
		return v
	}
	v = create()
	m[name] = v
	return v
}

// Counter returns the named counter, creating it on first use. Names follow
// Prometheus conventions ("slim_udp_tx_datagrams_total"); a label suffix in
// {name="value"} form is allowed and passed through to exposition.
func (r *Registry) Counter(name string) *Counter {
	return resolve(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return resolve(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named latency histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return resolve(r, r.histograms, name, NewHistogram)
}

// Remove deletes the named metric from the registry — every kind sharing
// the name goes. Pointers already resolved by components keep working but
// stop being exported, which is the point: per-session labeled series
// (input-to-paint histograms, say) would otherwise accumulate for every
// user who ever logged in. Call it from session-termination paths.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, name)
	delete(r.gauges, name)
	delete(r.histograms, name)
}

// Labeled resolves metrics that all carry one label and remembers every
// name it resolved, so Remove evicts exactly those: an owner that reaches
// its per-session series only through a Labeled cannot forget one at
// teardown. A Labeled is not safe for concurrent use; the registry is.
type Labeled struct {
	r     *Registry
	label string
	names []string
}

// Labeled returns a resolver that appends {key="value"} to every name.
func (r *Registry) Labeled(key, value string) *Labeled {
	return &Labeled{r: r, label: fmt.Sprintf("{%s=%q}", key, value)}
}

func (l *Labeled) name(base string) string {
	name := base + l.label
	l.names = append(l.names, name)
	return name
}

// Gauge resolves the labeled gauge base{key="value"}.
func (l *Labeled) Gauge(base string) *Gauge { return l.r.Gauge(l.name(base)) }

// Histogram resolves the labeled histogram base{key="value"}.
func (l *Labeled) Histogram(base string) *Histogram { return l.r.Histogram(l.name(base)) }

// Remove evicts every series resolved through l from the registry.
func (l *Labeled) Remove() {
	for _, name := range l.names {
		l.r.Remove(name)
	}
	l.names = nil
}

// MustSim panics unless r is a simulated-clock registry. Instrumentation
// helpers for simulator components call it so a wall-clock registry can
// never silently receive virtual-time observations.
func MustSim(r *Registry) *Registry {
	if r.Domain() != DomainSim {
		panic(fmt.Sprintf("obs: simulated-time instruments require a %s-domain registry, got %s", DomainSim, r.Domain()))
	}
	return r
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Domain     Domain                       `json:"domain"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every metric. Concurrent Observe/Add calls continue
// lock-free; the snapshot is internally consistent per metric but not
// across metrics (exactly what a sampling scraper expects).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Domain:     r.domain,
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// SortedKeys returns map keys in stable order for exposition.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
