// Package monitor derives windowed interactive-performance summaries from
// pairs of /debug/vars snapshots — the arithmetic behind cmd/slimstat,
// extracted so the interval math (counter deltas, windowed histogram
// percentiles, drop ratios, breach ages) is unit-testable without an HTTP
// scrape loop. Each summary covers exactly one polling interval, so the
// percentiles are windowed, not since-boot — the same framing as the
// paper's per-benchmark latency tables (§5).
package monitor

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"slim/internal/obs"
)

// Line is one interval's derived statistics.
type Line struct {
	// Paint is the windowed input-to-paint distribution: the interval's
	// delta of the paper's §3 headline histogram.
	Paint obs.HistogramSnapshot
	// Commands and WireBytes are the display commands and wire bytes the
	// encoders emitted this interval.
	Commands, WireBytes int64
	// Drops and Delivered count lost and delivered datagrams this interval,
	// summed across whichever transports are active.
	Drops, Delivered int64
	// Sessions is the live session count at the end of the interval.
	Sessions int64
	// Breaches is the number of flight-recorder latency breaches ever
	// (cumulative — a breach is news however long ago the window started).
	Breaches int64
	// LastBreachAge is how long ago the most recent breach fired, derived
	// from the slim_flight_last_breach_unix_ms gauge; negative when no
	// breach has ever fired.
	LastBreachAge time.Duration
	// CaptureOn reports whether the wire-capture ring is enabled, and
	// CaptureDrops counts records the ring shed this interval because a
	// burst outran the spooler (delta of slim_capture_ring_drops_total).
	CaptureOn    bool
	CaptureDrops int64
	// SLOEvents is the cumulative slim_slo_events_total count — 0 means no
	// SLO tracker is evaluating and the slo column is hidden. SLOState is
	// the fleet health gauge (0 OK, 1 DEGRADED, 2 BREACHING) and SLOBurn
	// the short/mid/long budget burn rates.
	SLOEvents int64
	SLOState  int64
	SLOBurn   [3]float64
	// HostSamples is the cumulative slim_runtime_samples_total count — 0
	// means no host monitor is running and the host column is hidden.
	// Goroutines and WorstGCPause come from the monitor's latest tick.
	HostSamples  int64
	Goroutines   int64
	WorstGCPause time.Duration
	// Incidents is the cumulative incident-bundle count
	// (slim_incident_bundles_total); shown once the first bundle lands.
	Incidents int64
	// NetQualSamples is the cumulative slim_netqual_rtt_samples_total
	// count — 0 means passive path estimation is disabled (or has seen no
	// round-trips yet) and the net column is hidden. NetRTT and NetJitter
	// are the worst session's smoothed estimates at scrape time, and
	// NetLossPermille the worst session's short-window loss, all read from
	// the per-session slim_netqual_* gauges.
	NetQualSamples  int64
	NetRTT          time.Duration
	NetJitter       time.Duration
	NetLossPermille int64
	// FleetShards is the slim_broker_shards gauge — 0 means the scraped
	// daemon is not a broker and the fleet columns are hidden.
	FleetShards int64
	// ShardSessions is the per-shard occupancy parsed from the
	// slim_broker_shard_sessions{shard="i"} gauges, indexed by shard; the
	// fleet total is Sessions, which every shard publishes into.
	ShardSessions []int64
	// Migrations counts live hotdesk migrations this interval (delta of
	// slim_broker_migrations_total).
	Migrations int64
	// Reattach is the windowed hotdesk reattach-latency distribution
	// (delta of slim_broker_reattach_seconds).
	Reattach obs.HistogramSnapshot
	// Interval is the window the deltas cover.
	Interval time.Duration
}

// sloStateNames renders the slim_slo_state gauge (mirrors slo.State).
var sloStateNames = [...]string{"OK", "DEGRADED", "BREACHING"}

// worstSession scans a metric's session-labeled gauges and returns the
// largest value — slimstat's one-line format has room for the worst path,
// not a per-session table (that is /debug/netqual's job).
func worstSession(gauges map[string]int64, metric string) int64 {
	prefix := metric + `{session="`
	var worst int64
	for name, v := range gauges {
		if strings.HasPrefix(name, prefix) && v > worst {
			worst = v
		}
	}
	return worst
}

// shardSessions collects the broker's per-shard occupancy gauges into a
// slice indexed by shard number. Labels outside [0, shards) are ignored —
// a scrape racing a reconfigured fleet must not panic the monitor.
func shardSessions(gauges map[string]int64, shards int64) []int64 {
	if shards <= 0 {
		return nil
	}
	out := make([]int64, shards)
	const prefix = `slim_broker_shard_sessions{shard="`
	for name, v := range gauges {
		rest, ok := strings.CutPrefix(name, prefix)
		if !ok {
			continue
		}
		label, ok := strings.CutSuffix(rest, `"}`)
		if !ok {
			continue
		}
		i, err := strconv.Atoi(label)
		if err != nil || i < 0 || int64(i) >= shards {
			continue
		}
		out[i] = v
	}
	return out
}

// Summarize derives one interval's Line from consecutive domain-keyed
// snapshots (as served at /debug/vars). now anchors breach-age arithmetic.
func Summarize(prev, cur map[string]obs.Snapshot, interval time.Duration, now time.Time) Line {
	p, c := prev["wall"], cur["wall"]
	l := Line{
		Paint: c.Histograms["slim_input_to_paint_seconds"].
			Delta(p.Histograms["slim_input_to_paint_seconds"]),
		// Like Delta, the labeled-sum growths clamp at zero: a restarted
		// daemon resets its counters, and a negative interval count would
		// otherwise print as a negative rate for one line.
		Commands: clampDelta(c.CounterSum("slim_encoder_commands_total") -
			p.CounterSum("slim_encoder_commands_total")),
		WireBytes: clampDelta(c.CounterSum("slim_encoder_wire_bytes_total") -
			p.CounterSum("slim_encoder_wire_bytes_total")),
		// Loss across whichever transports are active: fabric drops,
		// console decode drops, UDP send errors.
		Drops: Delta(p, c, "slim_fabric_dropped_total") +
			Delta(p, c, "slim_console_dropped_total") +
			Delta(p, c, "slim_udp_tx_errors_total"),
		Delivered: Delta(p, c, "slim_fabric_delivered_total") +
			Delta(p, c, "slim_udp_tx_datagrams_total"),
		Sessions:      c.Gauges["slim_sessions"],
		Breaches:      c.Counters["slim_flight_breaches_total"],
		LastBreachAge: -1,
		Interval:      interval,
	}
	if ms := c.Gauges["slim_flight_last_breach_unix_ms"]; ms > 0 {
		age := now.Sub(time.UnixMilli(ms))
		if age < 0 {
			age = 0
		}
		l.LastBreachAge = age
	}
	l.CaptureOn = c.Gauges["slim_capture_enabled"] != 0
	l.CaptureDrops = Delta(p, c, "slim_capture_ring_drops_total")
	l.SLOEvents = c.Counters["slim_slo_events_total"]
	l.SLOState = c.Gauges["slim_slo_state"]
	for i, role := range [...]string{"short", "mid", "long"} {
		l.SLOBurn[i] = float64(c.Gauges[`slim_slo_burn_milli{window="`+role+`"}`]) / 1000
	}
	l.HostSamples = c.Counters["slim_runtime_samples_total"]
	l.Goroutines = c.Gauges["slim_runtime_goroutines"]
	l.WorstGCPause = time.Duration(c.Gauges["slim_runtime_gc_pause_worst_ns"])
	l.Incidents = c.Counters["slim_incident_bundles_total"]
	l.NetQualSamples = c.Counters["slim_netqual_rtt_samples_total"]
	if l.NetQualSamples > 0 {
		l.NetRTT = time.Duration(worstSession(c.Gauges, "slim_netqual_srtt_ns"))
		l.NetJitter = time.Duration(worstSession(c.Gauges, "slim_netqual_jitter_ns"))
		l.NetLossPermille = worstSession(c.Gauges, "slim_netqual_loss_permille")
	}
	l.FleetShards = c.Gauges["slim_broker_shards"]
	if l.FleetShards > 0 {
		l.ShardSessions = shardSessions(c.Gauges, l.FleetShards)
		l.Migrations = Delta(p, c, "slim_broker_migrations_total")
		l.Reattach = c.Histograms["slim_broker_reattach_seconds"].
			Delta(p.Histograms["slim_broker_reattach_seconds"])
	}
	return l
}

// DropPct is the interval's loss percentage (0 when nothing moved).
func (l Line) DropPct() float64 {
	if l.Drops+l.Delivered <= 0 {
		return 0
	}
	return 100 * float64(l.Drops) / float64(l.Drops+l.Delivered)
}

// Rate converts an interval count to a per-second rate. A zero or
// negative interval (a clock that jumped, a first scrape) and a negative
// count (a counter reset the caller did not clamp) both yield 0 rather
// than an Inf or negative rate.
func (l Line) Rate(n int64) float64 {
	if l.Interval <= 0 || n < 0 {
		return 0
	}
	return float64(n) / l.Interval.Seconds()
}

// Format renders the Line in slimstat's one-line format, stamped with now:
//
//	15:04:05  paint p50 0.8ms p95 3.1ms p99 9.7ms | 412 cmd/s | 38.1 KB/s | drop 0.00% | 2 sessions | breach 1 (3s ago)
func (l Line) Format(now time.Time) string {
	s := fmt.Sprintf("%s  paint p50 %s p95 %s p99 %s | %.0f cmd/s | %.1f KB/s | drop %.2f%% | %d sessions",
		now.Format("15:04:05"),
		FormatMs(l.Paint.P50), FormatMs(l.Paint.P95), FormatMs(l.Paint.P99),
		l.Rate(l.Commands), l.Rate(l.WireBytes)/1024,
		l.DropPct(), l.Sessions)
	if l.Breaches > 0 {
		s += fmt.Sprintf(" | breach %d", l.Breaches)
		if l.LastBreachAge >= 0 {
			s += fmt.Sprintf(" (%s ago)", l.LastBreachAge.Round(time.Second))
		}
	}
	if l.CaptureOn {
		s += " | cap on"
		if l.CaptureDrops > 0 {
			s += fmt.Sprintf(" (%d shed)", l.CaptureDrops)
		}
	}
	if l.SLOEvents > 0 {
		state := "?"
		if l.SLOState >= 0 && int(l.SLOState) < len(sloStateNames) {
			state = sloStateNames[l.SLOState]
		}
		s += fmt.Sprintf(" | slo %s", state)
		if l.SLOState > 0 {
			s += fmt.Sprintf(" burn %.1f/%.1f/%.1f", l.SLOBurn[0], l.SLOBurn[1], l.SLOBurn[2])
		}
	}
	if l.HostSamples > 0 {
		s += fmt.Sprintf(" | host %dg", l.Goroutines)
		if l.WorstGCPause > 0 {
			s += fmt.Sprintf(" gc %s", FormatMs(l.WorstGCPause.Seconds()))
		}
	}
	if l.Incidents > 0 {
		s += fmt.Sprintf(" | incidents %d", l.Incidents)
	}
	if l.NetQualSamples > 0 {
		s += fmt.Sprintf(" | net rtt %s jit %s",
			FormatMs(l.NetRTT.Seconds()), FormatMs(l.NetJitter.Seconds()))
		if l.NetLossPermille > 0 {
			s += fmt.Sprintf(" loss %.1f%%", float64(l.NetLossPermille)/10)
		}
	}
	if l.FleetShards > 0 {
		occ := make([]string, len(l.ShardSessions))
		for i, n := range l.ShardSessions {
			occ[i] = fmt.Sprintf("%d", n)
		}
		s += fmt.Sprintf(" | fleet %d/%dsh [%s]",
			l.Sessions, l.FleetShards, strings.Join(occ, " "))
		if l.Migrations > 0 {
			s += fmt.Sprintf(" mig %d", l.Migrations)
		}
		if l.Reattach.Count > 0 {
			s += fmt.Sprintf(" reattach p99 %s", FormatMs(l.Reattach.P99))
		}
	}
	return s
}

// Delta is the non-negative growth of a counter between snapshots (a
// restarted daemon resets counters; clamping avoids a garbage first line).
func Delta(p, c obs.Snapshot, name string) int64 {
	return clampDelta(c.Counters[name] - p.Counters[name])
}

// clampDelta floors an interval growth at zero — counter resets must
// never surface as negative rates.
func clampDelta(d int64) int64 {
	if d < 0 {
		return 0
	}
	return d
}

// FormatMs renders a seconds value compactly in milliseconds ("-" for
// empty-window percentiles).
func FormatMs(seconds float64) string {
	switch {
	case seconds <= 0:
		return "-"
	case seconds < 0.01:
		return fmt.Sprintf("%.2fms", seconds*1e3)
	default:
		return fmt.Sprintf("%.0fms", seconds*1e3)
	}
}
