// Package hostmon is the host-runtime half of the observability stack:
// everything that can stall the pixel pipeline but never shows up in a
// wire trace. A Monitor samples runtime/metrics on a fixed interval —
// GC pause and scheduler-latency histograms, heap and goroutine counts,
// CGo and CPU time — publishing slim_runtime_* series into the existing
// registry and keeping a bounded in-memory ring of recent samples for
// incident bundles. The sample path is zero-alloc in steady state: the
// runtime/metrics buffers, histogram-delta scratch, and ring slots are
// all preallocated at Start.
//
// The monitor also turns its raw deltas into *stall windows*: intervals
// during which the host was provably not running user code — a GC pause
// above threshold ("gc") or evidence of CPU starvation ("cpu": the
// sampler's own tick fired late, or the scheduler-latency histogram grew
// a tail). Windows are handed to the flight recorder as
// flight.HostWindow evidence (Recorder.SetHostEvidence), which is how a
// breach whose critical chain overlaps a stall earns a HOST verdict
// instead of being misblamed on an innocent pipeline stage.
//
// The monitor never holds the CPU profiler: per-package CPU time is
// /debug/pprof/profile plus `go tool pprof -top`, and an incident bundle
// takes its own short capture.
package hostmon

import (
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/flight"
)

// Runtime metric names the sampler reads, fixed at build time so the
// sample buffer never changes shape.
const (
	mGCPauses   = "/gc/pauses:seconds"
	mSchedLat   = "/sched/latencies:seconds"
	mHeapBytes  = "/memory/classes/heap/objects:bytes"
	mTotalBytes = "/memory/classes/total:bytes"
	mGoroutines = "/sched/goroutines:goroutines"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mCgoCalls   = "/cgo/go-to-c-calls:calls"
	mCPUGC      = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal   = "/cpu/classes/total:cpu-seconds"
)

var metricNames = [...]string{
	mGCPauses, mSchedLat, mHeapBytes, mTotalBytes, mGoroutines,
	mGCCycles, mCgoCalls, mCPUGC, mCPUTotal,
}

// Config parameterizes a Monitor. Zero fields take defaults.
type Config struct {
	// Interval is the sampling period (default 250 ms).
	Interval time.Duration
	// RingSize bounds the in-memory sample ring (default 240 — one
	// minute of history at the default interval).
	RingSize int
	// GCPauseThreshold: a tick whose GC-pause delta contains a pause at
	// or above this records a "gc" stall window (default 10 ms).
	GCPauseThreshold time.Duration
	// CPUStallThreshold: a tick that fires this much late, or whose
	// sched-latency delta grew a tail at or above it, records a "cpu"
	// stall window (default 10 ms). The tick-lag signal is deliberate:
	// a starved sampler IS CPU-starvation evidence.
	CPUStallThreshold time.Duration
	// WindowRetention is how long stall windows remain reportable
	// (default 2 m); MaxWindows bounds how many are kept (default 256).
	WindowRetention time.Duration
	MaxWindows      int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.RingSize <= 0 {
		c.RingSize = 240
	}
	if c.GCPauseThreshold <= 0 {
		c.GCPauseThreshold = 10 * time.Millisecond
	}
	if c.CPUStallThreshold <= 0 {
		c.CPUStallThreshold = 10 * time.Millisecond
	}
	if c.WindowRetention <= 0 {
		c.WindowRetention = 2 * time.Minute
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = 256
	}
	return c
}

// Sample is one tick's host snapshot, as stored in the ring and
// serialized into incident bundles.
type Sample struct {
	// T is the sample timestamp on the monitor's obs.Clock.
	T time.Duration `json:"t_ns"`
	// HeapBytes / TotalBytes are live-object and total-reserved memory.
	HeapBytes  uint64 `json:"heap_bytes"`
	TotalBytes uint64 `json:"total_bytes"`
	// Goroutines is the live goroutine count.
	Goroutines int64 `json:"goroutines"`
	// GCCycles is the cumulative completed-GC-cycle count.
	GCCycles uint64 `json:"gc_cycles"`
	// CgoCalls is the cumulative Go-to-C call count.
	CgoCalls uint64 `json:"cgo_calls"`
	// WorstGCPause / WorstSchedLat are the worst GC pause and scheduler
	// latency first observed in this tick's histogram delta (0 if none).
	WorstGCPause  time.Duration `json:"worst_gc_pause_ns"`
	WorstSchedLat time.Duration `json:"worst_sched_lat_ns"`
	// GCCPUMilli is GC CPU time as a permille of total CPU time.
	GCCPUMilli int64 `json:"gc_cpu_milli"`
	// TickLag is how late this tick fired relative to its schedule — a
	// direct measurement of the sampler goroutine's own starvation.
	TickLag time.Duration `json:"tick_lag_ns"`
}

// Monitor is the runtime/metrics sampler. Create with New, wire with
// Instrument, then Start; Close stops the loop and waits for it.
type Monitor struct {
	cfg Config
	// clock stamps samples and stall windows; on the clock the flight
	// recorder reads, windows and breach chains share a time base.
	clock   *obs.Clock
	enabled atomic.Bool

	// Sampler state (loop goroutine only; guarded by smu for SampleNow).
	smu        sync.Mutex
	samples    []metrics.Sample
	prevPause  []uint64 // previous cumulative GC-pause bucket counts
	prevSched  []uint64 // previous cumulative sched-latency bucket counts
	prevGC     uint64
	prevCgo    uint64
	prevTick   time.Duration
	haveHists  bool
	lastSample Sample

	// Ring of recent samples (guarded by rmu; fixed backing array).
	rmu   sync.Mutex
	ring  []Sample
	rHead int // next write index
	rLen  int

	// Stall windows (guarded by wmu; bounded slice).
	wmu  sync.Mutex
	wins []flight.HostWindow

	// Lifecycle.
	stop chan struct{}
	done chan struct{}

	// Instruments (nil until Instrument).
	heapG, totalG, goroutinesG *obs.Gauge
	gcPauseG, schedLatG        *obs.Gauge
	gcCPUG, tickLagG           *obs.Gauge
	gcCyclesC, cgoC            *obs.Counter
	winGCC, winCPUC            *obs.Counter
	samplesC                   *obs.Counter
	pauseHist                  *obs.Histogram
}

// New returns a stopped, enabled monitor stamping from clock (obs.Wall in
// a live process). Zero config fields take defaults.
func New(clock *obs.Clock, cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:   cfg,
		clock: clock,
		ring:  make([]Sample, cfg.RingSize),
		wins:  make([]flight.HostWindow, 0, cfg.MaxWindows),
	}
	m.samples = make([]metrics.Sample, len(metricNames))
	for i, n := range metricNames {
		m.samples[i].Name = n
	}
	m.enabled.Store(true)
	return m
}

// Instrument resolves the monitor's series in reg: slim_runtime_* gauges
// and counters plus the slim_runtime_gc_pause histogram (worst pause per
// tick).
func (m *Monitor) Instrument(reg *obs.Registry) *Monitor {
	m.heapG = reg.Gauge("slim_runtime_heap_bytes")
	m.totalG = reg.Gauge("slim_runtime_total_bytes")
	m.goroutinesG = reg.Gauge("slim_runtime_goroutines")
	m.gcPauseG = reg.Gauge("slim_runtime_gc_pause_worst_ns")
	m.schedLatG = reg.Gauge("slim_runtime_sched_latency_worst_ns")
	m.gcCPUG = reg.Gauge("slim_runtime_gc_cpu_milli")
	m.tickLagG = reg.Gauge("slim_runtime_tick_lag_ns")
	m.gcCyclesC = reg.Counter("slim_runtime_gc_cycles_total")
	m.cgoC = reg.Counter("slim_runtime_cgo_calls_total")
	m.winGCC = reg.Counter(`slim_runtime_host_windows_total{kind="gc"}`)
	m.winCPUC = reg.Counter(`slim_runtime_host_windows_total{kind="cpu"}`)
	m.samplesC = reg.Counter("slim_runtime_samples_total")
	m.pauseHist = reg.Histogram("slim_runtime_gc_pause")
	return m
}

// SetEnabled switches sampling on or off without stopping the loop.
// Disabled ticks cost one atomic load and touch nothing.
func (m *Monitor) SetEnabled(on bool) { m.enabled.Store(on) }

// Start launches the sampling loop. Starting a started monitor panics;
// Close it first.
func (m *Monitor) Start() {
	if m.stop != nil {
		panic("hostmon: Start on a running monitor")
	}
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	m.prevTick = m.clock.Now()
	go m.loop(m.stop, m.done)
}

// Close stops the sampling loop and waits for it to exit. Closing a
// stopped monitor is a no-op.
func (m *Monitor) Close() {
	if m.stop == nil {
		return
	}
	close(m.stop)
	<-m.done
	m.stop, m.done = nil, nil
}

func (m *Monitor) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if !m.enabled.Load() {
				m.smu.Lock()
				m.prevTick = m.clock.Now() // don't count disabled time as lag
				m.smu.Unlock()
				continue
			}
			m.SampleNow()
		}
	}
}

// SampleNow takes one synchronous sample: reads runtime/metrics, updates
// the published series, appends to the ring, and records any stall
// windows detected in this tick's delta. The loop calls it every
// interval; tests and incident triggers call it directly for a fresh
// snapshot.
func (m *Monitor) SampleNow() Sample {
	m.smu.Lock()
	defer m.smu.Unlock()

	now := m.clock.Now()
	lag := now - m.prevTick - m.cfg.Interval
	if m.prevTick == 0 || lag < 0 {
		lag = 0
	}
	prevTick := m.prevTick
	m.prevTick = now

	metrics.Read(m.samples)

	var s Sample
	s.T = now
	s.TickLag = lag
	// One pass over the fixed sample set. A metric the running Go version
	// does not export reads as KindBad and is skipped, leaving its field
	// zero. The histogram deltas are the worst new GC pause and scheduler
	// latency this tick; GC CPU is reported as a permille of total CPU.
	var cpuGC, cpuTotal float64
	for i := range m.samples {
		name, v := m.samples[i].Name, &m.samples[i].Value
		switch v.Kind() {
		case metrics.KindUint64:
			switch name {
			case mHeapBytes:
				s.HeapBytes = v.Uint64()
			case mTotalBytes:
				s.TotalBytes = v.Uint64()
			case mGoroutines:
				s.Goroutines = int64(v.Uint64())
			case mGCCycles:
				s.GCCycles = v.Uint64()
			case mCgoCalls:
				s.CgoCalls = v.Uint64()
			}
		case metrics.KindFloat64:
			switch name {
			case mCPUGC:
				cpuGC = v.Float64()
			case mCPUTotal:
				cpuTotal = v.Float64()
			}
		case metrics.KindFloat64Histogram:
			switch name {
			case mGCPauses:
				s.WorstGCPause = histDelta(v.Float64Histogram(), &m.prevPause, m.haveHists)
			case mSchedLat:
				s.WorstSchedLat = histDelta(v.Float64Histogram(), &m.prevSched, m.haveHists)
			}
		}
	}
	if cpuTotal > 0 {
		s.GCCPUMilli = int64(1000 * cpuGC / cpuTotal)
	}
	first := !m.haveHists
	m.haveHists = true
	m.lastSample = s

	// Publish (every instrument is nil-safe before Instrument).
	m.heapG.Set(int64(s.HeapBytes))
	m.totalG.Set(int64(s.TotalBytes))
	m.goroutinesG.Set(s.Goroutines)
	m.gcPauseG.Set(int64(s.WorstGCPause))
	m.schedLatG.Set(int64(s.WorstSchedLat))
	m.gcCPUG.Set(s.GCCPUMilli)
	m.tickLagG.Set(int64(s.TickLag))
	if d := s.GCCycles - m.prevGC; d > 0 && m.prevGC > 0 {
		m.gcCyclesC.Add(int64(d))
	}
	if d := s.CgoCalls - m.prevCgo; d > 0 && m.prevCgo > 0 {
		m.cgoC.Add(int64(d))
	}
	m.samplesC.Inc()
	if s.WorstGCPause > 0 {
		m.pauseHist.Observe(s.WorstGCPause)
	}
	m.prevGC = s.GCCycles
	m.prevCgo = s.CgoCalls

	// Ring append (fixed backing array; no allocation).
	m.rmu.Lock()
	m.ring[m.rHead] = s
	m.rHead = (m.rHead + 1) % len(m.ring)
	if m.rLen < len(m.ring) {
		m.rLen++
	}
	m.rmu.Unlock()

	// Stall windows. The first tick's histogram "delta" is the whole
	// process history — skip it.
	if !first {
		winStart := prevTick
		if winStart > now {
			winStart = now
		}
		if s.WorstGCPause >= m.cfg.GCPauseThreshold {
			m.addWindow(flight.HostWindow{
				Start: winStart, End: now, Kind: "gc",
				WorstNs: int64(s.WorstGCPause),
			})
		}
		cpuWorst := s.TickLag
		if s.WorstSchedLat > cpuWorst {
			cpuWorst = s.WorstSchedLat
		}
		if cpuWorst >= m.cfg.CPUStallThreshold {
			m.addWindow(flight.HostWindow{
				Start: winStart, End: now, Kind: "cpu",
				WorstNs: int64(cpuWorst),
			})
		}
	}
	return s
}

// histDelta compares a cumulative Float64Histogram against the previous
// tick's counts (stored in *prev, which it updates) and returns the worst
// bucket that gained a count — the upper edge, or the lower edge for the
// +Inf bucket. Returns 0 when nothing new landed or on the warm-up tick.
func histDelta(h *metrics.Float64Histogram, prev *[]uint64, warm bool) time.Duration {
	var worst float64
	if warm && len(*prev) == len(h.Counts) {
		for i := len(h.Counts) - 1; i >= 0; i-- {
			if h.Counts[i] > (*prev)[i] {
				// Buckets[i] and Buckets[i+1] bound bucket i.
				hi := h.Buckets[i+1]
				if math.IsInf(hi, +1) {
					hi = h.Buckets[i]
				}
				worst = hi
				break
			}
		}
	}
	// Save current counts, growing the scratch only when the runtime
	// changes the bucket layout (effectively never after warm-up).
	if cap(*prev) < len(h.Counts) {
		*prev = make([]uint64, len(h.Counts))
	}
	*prev = (*prev)[:len(h.Counts)]
	copy(*prev, h.Counts)
	if worst <= 0 || math.IsNaN(worst) || math.IsInf(worst, 0) {
		return 0
	}
	return time.Duration(worst * float64(time.Second))
}

// addWindow appends a stall window, merging with the newest window when
// they touch and share a kind, bumping the kind counter, and evicting
// the oldest entry past MaxWindows.
func (m *Monitor) addWindow(w flight.HostWindow) {
	m.wmu.Lock()
	if n := len(m.wins); n > 0 {
		last := &m.wins[n-1]
		if last.Kind == w.Kind && w.Start <= last.End {
			if w.End > last.End {
				last.End = w.End
			}
			if w.WorstNs > last.WorstNs {
				last.WorstNs = w.WorstNs
			}
			m.wmu.Unlock()
			return
		}
	}
	if len(m.wins) >= m.cfg.MaxWindows {
		copy(m.wins, m.wins[1:])
		m.wins = m.wins[:len(m.wins)-1]
	}
	m.wins = append(m.wins, w)
	m.wmu.Unlock()
	if w.Kind == "gc" {
		m.winGCC.Inc()
	} else {
		m.winCPUC.Inc()
	}
}

// Windows reports the stall windows still inside the retention horizon
// as of asOf, oldest first — the flight recorder's host-evidence feed:
//
//	rec.SetHostEvidence(mon.Windows)
func (m *Monitor) Windows(asOf time.Duration) []flight.HostWindow {
	horizon := asOf - m.cfg.WindowRetention
	m.wmu.Lock()
	defer m.wmu.Unlock()
	out := make([]flight.HostWindow, 0, len(m.wins))
	for _, w := range m.wins {
		if w.End >= horizon {
			out = append(out, w)
		}
	}
	return out
}

// Ring returns a copy of the sample ring, oldest first.
func (m *Monitor) Ring() []Sample {
	m.rmu.Lock()
	defer m.rmu.Unlock()
	out := make([]Sample, m.rLen)
	start := (m.rHead - m.rLen + len(m.ring)) % len(m.ring)
	for i := 0; i < m.rLen; i++ {
		out[i] = m.ring[(start+i)%len(m.ring)]
	}
	return out
}

// Last returns the most recent sample (zero before the first tick).
func (m *Monitor) Last() Sample {
	m.smu.Lock()
	defer m.smu.Unlock()
	return m.lastSample
}
