package slo

import (
	"strings"

	"slim/internal/obs"
	"slim/internal/obs/flight"
)

// SessionStatus is one session's point-in-time SLO evaluation as served
// at /debug/slo.
type SessionStatus struct {
	Session uint32 `json:"session"`
	User    string `json:"user"`
	State   string `json:"state"`
	// Windows are the session's window evaluations, short to long.
	Windows []WindowStat `json:"windows"`
	// Blame is the session's cumulative breach-attribution histogram,
	// keyed by lowercase stage name; stages never blamed are omitted.
	Blame map[string]int64 `json:"blame,omitempty"`
}

// Status is the full /debug/slo document (and an incident bundle's
// slo.json).
type Status struct {
	Domain    obs.Domain `json:"domain"`
	Enabled   bool       `json:"enabled"`
	TargetNs  int64      `json:"target_ns"`
	BudgetPct float64    `json:"budget_pct"`
	// NowNs is the evaluation timestamp in the tracker's clock domain.
	NowNs int64  `json:"now_ns"`
	State string `json:"state"`
	// Windows are the fleet evaluations; Blame the fleet attribution
	// histogram; Sessions the per-session breakdown, ascending by ID.
	Windows  []WindowStat     `json:"windows"`
	Blame    map[string]int64 `json:"blame,omitempty"`
	Sessions []SessionStatus  `json:"sessions"`
}

// blameMap converts an attribution array to the JSON histogram form.
func blameMap(counts *[flight.NumStages]int64) map[string]int64 {
	var m map[string]int64
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int64)
		}
		m[strings.ToLower(flight.Stage(i).String())] = n
	}
	return m
}

// Status evaluates the tracker: fleet windows and state, per-session
// windows, states, and blame histograms.
func (t *Tracker) Status() Status {
	nowNs := int64(t.clock.Now())
	budget := t.Budget()
	burns, stats := t.fleet.eval(nowNs, budget)
	st := Status{
		Domain:    t.clock.Domain(),
		Enabled:   t.enabled.Load(),
		TargetNs:  t.targetNs.Load(),
		BudgetPct: budget * 100,
		NowNs:     nowNs,
		State:     stateOf(burns).String(),
		Windows:   stats[:],
	}
	var fleetBlame [flight.NumStages]int64
	for i := range t.fleetBlame {
		fleetBlame[i] = t.fleetBlame[i].Load()
	}
	st.Blame = blameMap(&fleetBlame)

	ids := t.sessions.IDs()
	st.Sessions = make([]SessionStatus, 0, len(ids))
	for _, id := range ids {
		s := t.sessions.Lookup(id)
		if s == nil {
			continue // evicted since IDs
		}
		sburns, sstats := s.win.eval(nowNs, budget)
		var blame [flight.NumStages]int64
		for i := range s.blame {
			blame[i] = s.blame[i].Load()
		}
		st.Sessions = append(st.Sessions, SessionStatus{
			Session: s.id,
			User:    s.user,
			State:   stateOf(sburns).String(),
			Windows: sstats[:],
			Blame:   blameMap(&blame),
		})
	}
	return st
}
