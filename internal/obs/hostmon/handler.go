package hostmon

import "slim/internal/obs/flight"

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
