package obs

import (
	"sync"
	"testing"
	"time"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry(DomainWall)
	c1 := r.Counter("slim_test_total")
	c2 := r.Counter("slim_test_total")
	if c1 != c2 {
		t.Error("same counter name resolved to two instances")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same gauge name resolved to two instances")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("same histogram name resolved to two instances")
	}
}

// TestRegistryConcurrentRegistration races get-or-create from many
// goroutines; every caller must land on the one shared metric.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry(DomainWall)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Counter("shared").Inc()
			r.Histogram("hist").Observe(time.Millisecond)
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != n {
		t.Errorf("shared counter = %d, want %d", got, n)
	}
	if got := r.Histogram("hist").Count(); got != n {
		t.Errorf("shared histogram count = %d, want %d", got, n)
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry(DomainSim)
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h_seconds")
	c.Add(7)
	g.Set(-3)
	h.Observe(time.Millisecond)

	s := r.Snapshot()
	if s.Domain != DomainSim {
		t.Errorf("snapshot domain = %q, want sim", s.Domain)
	}
	if s.Counters["c_total"] != 7 || s.Gauges["g"] != -3 || s.Histograms["h_seconds"].Count != 1 {
		t.Errorf("snapshot values wrong: %+v", s)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	c.Inc()
	c.Add(5)
	g.Set(9)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments reported nonzero values")
	}
}

func TestMustSim(t *testing.T) {
	sim := NewRegistry(DomainSim)
	if MustSim(sim) != sim {
		t.Error("MustSim did not return the sim registry")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSim accepted a wall-clock registry")
		}
	}()
	MustSim(NewRegistry(DomainWall))
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry(DomainWall)
	c := r.Counter("gone_total")
	r.Gauge(`labeled{session="u"}`)
	r.Histogram(`labeled{session="u"}`)
	c.Inc()

	r.Remove("gone_total")
	r.Remove(`labeled{session="u"}`)

	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Errorf("metrics survived Remove: %+v", snap)
	}
	// Held pointers keep working; re-registering yields a fresh identity.
	c.Inc()
	if r.Counter("gone_total").Value() != 0 {
		t.Error("re-registered counter inherited the removed identity")
	}
}
