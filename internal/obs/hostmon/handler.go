package hostmon

import (
	"fmt"
	"io"
	"time"

	"slim/internal/obs/flight"
)

// Status is the /debug/hostmon document (and an incident bundle's
// hostmon.json): the monitor's configuration,
// the most recent sample, the full sample ring, live stall windows, and
// (when a profiler is attached) the latest top-N self-time table.
type Status struct {
	Enabled      bool   `json:"enabled"`
	IntervalNs   int64  `json:"interval_ns"`
	GCPauseThrNs int64  `json:"gc_pause_threshold_ns"`
	CPUStallNs   int64  `json:"cpu_stall_threshold_ns"`
	Last         Sample `json:"last"`
	// Samples is the ring, oldest first; Windows the live stall windows.
	Samples []Sample            `json:"samples"`
	Windows []flight.HostWindow `json:"windows,omitempty"`
	// Profile is the latest profile window's top-N self-time by package
	// (absent without a profiler).
	Profile []PkgSelf `json:"profile,omitempty"`
}

// StatusWith builds the full document, including prof's top-N table when
// prof is non-nil.
func (m *Monitor) StatusWith(prof *Profiler) Status {
	st := Status{
		Enabled:      m.enabled.Load(),
		IntervalNs:   int64(m.cfg.Interval),
		GCPauseThrNs: int64(m.cfg.GCPauseThreshold),
		CPUStallNs:   int64(m.cfg.CPUStallThreshold),
		Last:         m.Last(),
		Samples:      m.Ring(),
		Windows:      m.Windows(m.clock.Now()),
	}
	if prof != nil {
		st.Profile = prof.Top()
	}
	return st
}

// WriteSummary prints the host state the document froze: the last
// sample's heap, goroutines, worst GC pause and tick lag, and how many
// stall windows were live.
func (st *Status) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "  host at capture: heap %.1f MiB, %d goroutines, worst GC pause %v, tick lag %v\n",
		float64(st.Last.HeapBytes)/(1<<20), st.Last.Goroutines,
		time.Duration(st.Last.WorstGCPause).Round(time.Microsecond),
		time.Duration(st.Last.TickLag).Round(time.Microsecond))
	if len(st.Windows) > 0 {
		fmt.Fprintf(w, "  live stall windows: %d\n", len(st.Windows))
	}
}

// WriteTopSelf prints the eight packages with the most self time in a
// pprof CPU profile; one that does not parse, or is empty, prints nothing.
func WriteTopSelf(w io.Writer, profile []byte) {
	self, err := SelfTimeByPkg(profile)
	if err != nil || len(self) == 0 {
		return
	}
	fmt.Fprintln(w, "  top self-time by package (bundled profile window):")
	for _, t := range topPkgs(self, 8) {
		fmt.Fprintf(w, "    %-40s %v\n", t.Pkg, time.Duration(t.SelfNs).Round(time.Millisecond))
	}
}
