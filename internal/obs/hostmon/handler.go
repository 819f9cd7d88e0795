package hostmon

import (
	"fmt"
	"io"
	"time"

	"slim/internal/obs/flight"
)

// Status is the /debug/hostmon document (and an incident bundle's
// hostmon.json): the monitor's configuration, the most recent sample, the
// full sample ring, and the live stall windows.
type Status struct {
	Enabled      bool   `json:"enabled"`
	IntervalNs   int64  `json:"interval_ns"`
	GCPauseThrNs int64  `json:"gc_pause_threshold_ns"`
	CPUStallNs   int64  `json:"cpu_stall_threshold_ns"`
	Last         Sample `json:"last"`
	// Samples is the ring, oldest first; Windows the live stall windows.
	Samples []Sample            `json:"samples"`
	Windows []flight.HostWindow `json:"windows,omitempty"`
}

// Status builds the full document.
func (m *Monitor) Status() Status {
	return Status{
		Enabled:      m.enabled.Load(),
		IntervalNs:   int64(m.cfg.Interval),
		GCPauseThrNs: int64(m.cfg.GCPauseThreshold),
		CPUStallNs:   int64(m.cfg.CPUStallThreshold),
		Last:         m.Last(),
		Samples:      m.Ring(),
		Windows:      m.Windows(m.clock.Now()),
	}
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
