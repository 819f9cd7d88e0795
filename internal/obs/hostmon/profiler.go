package hostmon

import (
	"bytes"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"slim/internal/obs"
)

// Profiler keeps CPU profiling continuously on in short windows: each
// window is captured with runtime/pprof, stored in a rotating in-memory
// ring of serialized profiles, parsed, and summarized as top-N self-time
// by package gauges (slim_profile_self_ms{pkg=...}). When an incident
// fires, Latest() is the profile that covers it — no "can you reproduce
// it with profiling on?" round trip.
type Profiler struct {
	window  time.Duration
	ringCap int
	topN    int

	mu     sync.Mutex
	ring   []ProfileWindow
	reg    *obs.Registry
	pubbed map[string]string // pkg → published gauge name

	windowsC *obs.Counter
	errorsC  *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// ProfileWindow is one captured CPU-profile window.
type ProfileWindow struct {
	// Start/End bound the window in wall time.
	Start, End time.Time
	// Data is the gzipped pprof protobuf.
	Data []byte
	// SelfByPkg is self-time by package, parsed from Data (nil when the
	// profile could not be parsed).
	SelfByPkg map[string]int64
}

// NewProfiler returns a stopped profiler capturing windows of the given
// length (default 5 s) into a ring of ringSize entries (default 4),
// publishing the top topN packages (default 8).
func NewProfiler(window time.Duration, ringSize, topN int) *Profiler {
	if window <= 0 {
		window = 5 * time.Second
	}
	if ringSize <= 0 {
		ringSize = 4
	}
	if topN <= 0 {
		topN = 8
	}
	return &Profiler{window: window, ringCap: ringSize, topN: topN}
}

// Instrument makes reg the home of the profiler's series: the rotating
// top-N self-time gauges plus slim_profile_windows_total and
// slim_profile_errors_total.
func (p *Profiler) Instrument(reg *obs.Registry) *Profiler {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reg = reg
	p.pubbed = make(map[string]string)
	p.windowsC = reg.Counter("slim_profile_windows_total")
	p.errorsC = reg.Counter("slim_profile_errors_total")
	return p
}

// Window reports the profile-window length.
func (p *Profiler) Window() time.Duration { return p.window }

// SetWindow changes the profile-window length. Call it before Start; a
// running loop keeps its window. Non-positive values are ignored.
func (p *Profiler) SetWindow(d time.Duration) {
	if d > 0 && p.stop == nil {
		p.window = d
	}
}

// Start launches the capture loop. Starting a started profiler panics.
func (p *Profiler) Start() {
	if p.stop != nil {
		panic("hostmon: Start on a running profiler")
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go p.loop(p.stop, p.done)
}

// Close stops the capture loop, finishing any in-flight window, and
// waits for it. Closing a stopped profiler is a no-op.
func (p *Profiler) Close() {
	if p.stop == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.stop, p.done = nil, nil
}

func (p *Profiler) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		p.CaptureWindow(stop)
		select {
		case <-stop:
			return
		default:
		}
	}
}

// CaptureWindow records one profile window, blocking for the window
// length (or until stop closes). It is exported for the incident
// engine's on-demand fallback; concurrent captures are serialized by the
// runtime (the loser counts an error and returns false).
func (p *Profiler) CaptureWindow(stop <-chan struct{}) bool {
	var buf bytes.Buffer
	start := time.Now()
	err := pprof.StartCPUProfile(&buf)
	t := time.NewTimer(p.window)
	defer t.Stop()
	select {
	case <-stop:
	case <-t.C:
	}
	if err != nil {
		// Another profile is running (ours or /debug/pprof/profile).
		p.errorsC.Inc()
		return false
	}
	pprof.StopCPUProfile()
	w := ProfileWindow{Start: start, End: time.Now(), Data: buf.Bytes()}
	if self, err := SelfTimeByPkg(w.Data); err == nil {
		w.SelfByPkg = self
	} else {
		p.errorsC.Inc()
	}
	p.store(w)
	return true
}

// store appends the window to the ring and republishes the top-N gauges.
func (p *Profiler) store(w ProfileWindow) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ring) >= p.ringCap {
		copy(p.ring, p.ring[1:])
		p.ring = p.ring[:len(p.ring)-1]
	}
	p.ring = append(p.ring, w)
	p.windowsC.Inc()
	if p.reg == nil || w.SelfByPkg == nil {
		return
	}
	top := topPkgs(w.SelfByPkg, p.topN)
	// Retire packages that fell out of the top-N, publish the new set.
	live := make(map[string]bool, len(top))
	for _, e := range top {
		live[e.Pkg] = true
	}
	for pkg, name := range p.pubbed {
		if !live[pkg] {
			p.reg.Remove(name)
			delete(p.pubbed, pkg)
		}
	}
	for _, e := range top {
		name, ok := p.pubbed[e.Pkg]
		if !ok {
			name = `slim_profile_self_ms{pkg="` + quoteLabel(e.Pkg) + `"}`
			p.pubbed[e.Pkg] = name
		}
		p.reg.Gauge(name).Set(e.SelfNs / int64(time.Millisecond))
	}
}

// PkgSelf is one package's self-time in a profile window.
type PkgSelf struct {
	Pkg    string `json:"pkg"`
	SelfNs int64  `json:"self_ns"`
}

// topPkgs ranks self-time by package, descending, keeping n entries.
func topPkgs(self map[string]int64, n int) []PkgSelf {
	out := make([]PkgSelf, 0, len(self))
	for pkg, ns := range self {
		out = append(out, PkgSelf{Pkg: pkg, SelfNs: ns})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Pkg < out[j].Pkg
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Latest returns the most recent complete profile window (zero Data when
// none has completed yet).
func (p *Profiler) Latest() ProfileWindow {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.ring) == 0 {
		return ProfileWindow{}
	}
	return p.ring[len(p.ring)-1]
}

// Top returns the latest window's top-N packages by self-time.
func (p *Profiler) Top() []PkgSelf {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.ring) - 1; i >= 0; i-- {
		if p.ring[i].SelfByPkg != nil {
			return topPkgs(p.ring[i].SelfByPkg, p.topN)
		}
	}
	return nil
}

// quoteLabel is strconv.Quote minus the surrounding quotes — reserved
// for package paths that somehow contain label-breaking characters.
func quoteLabel(s string) string {
	q := strconv.Quote(s)
	return q[1 : len(q)-1]
}
