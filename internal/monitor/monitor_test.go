package monitor

import (
	"strings"
	"testing"
	"time"

	"slim/internal/obs"
)

// snapshots builds a prev/cur pair from two registries filled by the test.
func snapPair(fill func(prev, cur *obs.Registry)) (p, c map[string]obs.Snapshot) {
	prev := obs.NewRegistry(obs.DomainWall)
	cur := obs.NewRegistry(obs.DomainWall)
	fill(prev, cur)
	return map[string]obs.Snapshot{"wall": prev.Snapshot()},
		map[string]obs.Snapshot{"wall": cur.Snapshot()}
}

func TestSummarizeWindowsTheInterval(t *testing.T) {
	now := time.UnixMilli(1_700_000_010_000)
	p, c := snapPair(func(prev, cur *obs.Registry) {
		// 100 commands and 10 KiB before the window, twice that after:
		// the line must report only the growth.
		prev.Counter(`slim_encoder_commands_total{type="fill"}`).Add(100)
		prev.Counter("slim_encoder_wire_bytes_total").Add(10 * 1024)
		cur.Counter(`slim_encoder_commands_total{type="fill"}`).Add(150)
		cur.Counter(`slim_encoder_commands_total{type="copy"}`).Add(50)
		cur.Counter("slim_encoder_wire_bytes_total").Add(30 * 1024)

		// Paint latency: only the window's observations shape percentiles.
		ph := prev.Histogram("slim_input_to_paint_seconds")
		ch := cur.Histogram("slim_input_to_paint_seconds")
		ph.Observe(time.Second) // ancient outlier, outside the window
		ch.Observe(time.Second)
		for i := 0; i < 100; i++ {
			ch.Observe(2 * time.Millisecond)
		}

		cur.Counter("slim_fabric_dropped_total").Add(5)
		cur.Counter("slim_fabric_delivered_total").Add(95)
		cur.Gauge("slim_sessions").Set(3)
		cur.Counter("slim_flight_breaches_total").Add(2)
		cur.Gauge("slim_flight_last_breach_unix_ms").Set(now.Add(-3 * time.Second).UnixMilli())
	})

	l := Summarize(p, c, 2*time.Second, now)
	if l.Commands != 100 {
		t.Errorf("Commands = %d, want 100 (summed across labels, windowed)", l.Commands)
	}
	if got := l.Rate(l.Commands); got != 50 {
		t.Errorf("command rate = %v/s, want 50", got)
	}
	if l.WireBytes != 20*1024 {
		t.Errorf("WireBytes = %d, want %d", l.WireBytes, 20*1024)
	}
	if l.Paint.Count != 100 {
		t.Errorf("windowed paint count = %d, want 100 (the outlier predates the window)", l.Paint.Count)
	}
	if l.Paint.P95 >= 0.5 {
		t.Errorf("windowed p95 = %v, polluted by the pre-window outlier", l.Paint.P95)
	}
	if got := l.DropPct(); got != 5 {
		t.Errorf("DropPct = %v, want 5", got)
	}
	if l.Sessions != 3 || l.Breaches != 2 {
		t.Errorf("sessions/breaches = %d/%d, want 3/2", l.Sessions, l.Breaches)
	}
	if l.LastBreachAge != 3*time.Second {
		t.Errorf("LastBreachAge = %v, want 3s", l.LastBreachAge)
	}

	line := l.Format(now)
	if !strings.Contains(line, "breach 2 (3s ago)") {
		t.Errorf("formatted line missing breach info: %q", line)
	}
	if !strings.Contains(line, "3 sessions") || !strings.Contains(line, "drop 5.00%") {
		t.Errorf("formatted line = %q", line)
	}
}

func TestSummarizeQuietSystem(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {})
	l := Summarize(p, c, time.Second, time.UnixMilli(0))
	if l.DropPct() != 0 {
		t.Errorf("DropPct on idle = %v", l.DropPct())
	}
	if l.LastBreachAge >= 0 {
		t.Errorf("LastBreachAge with no breach = %v, want negative", l.LastBreachAge)
	}
	line := l.Format(time.UnixMilli(0))
	if strings.Contains(line, "breach") {
		t.Errorf("idle line mentions breaches: %q", line)
	}
	if !strings.Contains(line, "paint p50 - p95 - p99 -") {
		t.Errorf("idle percentiles = %q, want dashes", line)
	}
}

func TestSummarizeCalibrationAndCaptureColumns(t *testing.T) {
	now := time.UnixMilli(1_700_000_010_000)
	p, c := snapPair(func(prev, cur *obs.Registry) {
		cur.Gauge("slim_capture_enabled").Set(1)
		prev.Counter("slim_capture_ring_drops_total").Add(10)
		cur.Counter("slim_capture_ring_drops_total").Add(25)
	})
	l := Summarize(p, c, time.Second, now)
	if !l.CaptureOn || l.CaptureDrops != 15 {
		t.Errorf("capture = on=%v drops=%d, want on=true drops=15 (windowed)",
			l.CaptureOn, l.CaptureDrops)
	}
	line := l.Format(now)
	if !strings.Contains(line, "cap on (15 shed)") {
		t.Errorf("formatted line missing capture column: %q", line)
	}
}

func TestSummarizeHidesQuietCalibrationAndCapture(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		// The capture ring is instrumented but disabled: its column
		// should not clutter the line.
		cur.Gauge("slim_capture_enabled").Set(0)
		cur.Counter("slim_capture_ring_drops_total").Add(0)
	})
	line := Summarize(p, c, time.Second, time.UnixMilli(0)).Format(time.UnixMilli(0))
	if strings.Contains(line, "cap on") {
		t.Errorf("quiet line grew a capture column: %q", line)
	}
}

func TestDeltaClampsCounterResets(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		prev.Counter("x_total").Add(100)
		cur.Counter("x_total").Add(10) // daemon restarted mid-watch
	})
	if got := Delta(p["wall"], c["wall"], "x_total"); got != 0 {
		t.Errorf("Delta across a reset = %d, want 0", got)
	}
}

func TestFormatMs(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "-"}, {-1, "-"}, {0.0008, "0.80ms"}, {0.25, "250ms"},
	}
	for _, tc := range cases {
		if got := FormatMs(tc.in); got != tc.want {
			t.Errorf("FormatMs(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestSummarizeCounterReset is the satellite regression: a restarted
// daemon hands the scraper a snapshot whose counters went backwards. No
// derived statistic may come out negative, and no rate may print as
// negative or Inf.
func TestSummarizeCounterReset(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		// prev saw a long-lived daemon; cur is a fresh restart.
		prev.Counter(`slim_encoder_commands_total{type="fill"}`).Add(100_000)
		prev.Counter("slim_encoder_wire_bytes_total").Add(50 << 20)
		prev.Counter("slim_fabric_dropped_total").Add(500)
		prev.Counter("slim_fabric_delivered_total").Add(90_000)
		cur.Counter(`slim_encoder_commands_total{type="fill"}`).Add(10)
		cur.Counter("slim_encoder_wire_bytes_total").Add(1024)
		cur.Counter("slim_fabric_delivered_total").Add(9)
	})
	l := Summarize(p, c, 2*time.Second, time.UnixMilli(0))
	if l.Commands < 0 || l.WireBytes < 0 || l.Drops < 0 || l.Delivered < 0 {
		t.Fatalf("negative interval counts after reset: %+v", l)
	}
	if got := l.Rate(l.Commands); got < 0 {
		t.Errorf("command rate = %v, want >= 0", got)
	}
	line := l.Format(time.UnixMilli(0))
	if strings.Contains(line, "-") && strings.Contains(line, "cmd/s") {
		// The only dashes allowed are the empty-percentile placeholders.
		for _, frag := range strings.Split(line, "|") {
			if strings.Contains(frag, "cmd/s") && strings.Contains(frag, "-") {
				t.Errorf("negative rate leaked into line: %q", line)
			}
		}
	}
}

// TestRateEdges: zero and negative intervals, and negative counts, never
// produce Inf or negative rates.
func TestRateEdges(t *testing.T) {
	if got := (Line{Interval: 0}).Rate(100); got != 0 {
		t.Errorf("zero-interval rate = %v, want 0", got)
	}
	if got := (Line{Interval: -time.Second}).Rate(100); got != 0 {
		t.Errorf("negative-interval rate = %v, want 0", got)
	}
	if got := (Line{Interval: time.Second}).Rate(-5); got != 0 {
		t.Errorf("negative-count rate = %v, want 0", got)
	}
	if got := (Line{Interval: 2 * time.Second}).Rate(10); got != 5 {
		t.Errorf("rate = %v, want 5", got)
	}
}

// TestSummarizeSLOColumns: the slo column appears once a tracker is
// evaluating, shows the state, and adds burns only when unhealthy.
func TestSummarizeSLOColumns(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		cur.Counter("slim_slo_events_total").Add(1000)
		cur.Gauge("slim_slo_state").Set(2)
		cur.Gauge(`slim_slo_burn_milli{window="short"}`).Set(12_400)
		cur.Gauge(`slim_slo_burn_milli{window="mid"}`).Set(3_100)
		cur.Gauge(`slim_slo_burn_milli{window="long"}`).Set(800)
	})
	l := Summarize(p, c, time.Second, time.UnixMilli(0))
	if l.SLOEvents != 1000 || l.SLOState != 2 {
		t.Fatalf("slo fields = %+v", l)
	}
	if l.SLOBurn != [3]float64{12.4, 3.1, 0.8} {
		t.Fatalf("burns = %v", l.SLOBurn)
	}
	line := l.Format(time.UnixMilli(0))
	if !strings.Contains(line, "slo BREACHING burn 12.4/3.1/0.8") {
		t.Errorf("line = %q", line)
	}

	// Healthy: state shown without burn noise.
	p, c = snapPair(func(prev, cur *obs.Registry) {
		cur.Counter("slim_slo_events_total").Add(10)
	})
	line = Summarize(p, c, time.Second, time.UnixMilli(0)).Format(time.UnixMilli(0))
	if !strings.Contains(line, "slo OK") || strings.Contains(line, "burn") {
		t.Errorf("healthy line = %q", line)
	}

	// No tracker: no slo column at all.
	p, c = snapPair(func(prev, cur *obs.Registry) {})
	if line := Summarize(p, c, time.Second, time.UnixMilli(0)).Format(time.UnixMilli(0)); strings.Contains(line, "slo") {
		t.Errorf("idle line mentions slo: %q", line)
	}
}

// TestSummarizeHostColumns: the host column appears once the runtime
// monitor samples, showing goroutines and the worst GC pause; the
// incident column appears once the first bundle is written.
func TestSummarizeHostColumns(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		cur.Counter("slim_runtime_samples_total").Add(40)
		cur.Gauge("slim_runtime_goroutines").Set(23)
		cur.Gauge("slim_runtime_gc_pause_worst_ns").Set(int64(3200 * time.Microsecond))
		cur.Counter("slim_incident_bundles_total").Add(2)
	})
	l := Summarize(p, c, time.Second, time.UnixMilli(0))
	if l.HostSamples != 40 || l.Goroutines != 23 {
		t.Fatalf("host fields = %+v", l)
	}
	if l.WorstGCPause != 3200*time.Microsecond {
		t.Fatalf("WorstGCPause = %v", l.WorstGCPause)
	}
	if l.Incidents != 2 {
		t.Fatalf("Incidents = %d", l.Incidents)
	}
	line := l.Format(time.UnixMilli(0))
	if !strings.Contains(line, "host 23g gc 3.20ms") {
		t.Errorf("line missing host column: %q", line)
	}
	if !strings.Contains(line, "incidents 2") {
		t.Errorf("line missing incident column: %q", line)
	}

	// Sampling but no GC pause yet: the gc fragment is dropped.
	p, c = snapPair(func(prev, cur *obs.Registry) {
		cur.Counter("slim_runtime_samples_total").Add(1)
		cur.Gauge("slim_runtime_goroutines").Set(9)
	})
	line = Summarize(p, c, time.Second, time.UnixMilli(0)).Format(time.UnixMilli(0))
	if !strings.Contains(line, "host 9g") || strings.Contains(line, "gc ") {
		t.Errorf("quiet-GC line = %q", line)
	}

	// No monitor: no host or incident columns at all.
	p, c = snapPair(func(prev, cur *obs.Registry) {})
	line = Summarize(p, c, time.Second, time.UnixMilli(0)).Format(time.UnixMilli(0))
	if strings.Contains(line, "host ") || strings.Contains(line, "incidents") {
		t.Errorf("idle line grew host columns: %q", line)
	}
}

// TestSummarizeFleetColumns: the fleet column appears once a broker's
// shard gauge is present, showing total and per-shard occupancy (ordered
// by shard index regardless of map iteration), migrations only when the
// window saw one, and the reattach p99 only when the window observed a
// hotdesk.
func TestSummarizeFleetColumns(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		cur.Gauge("slim_broker_shards").Set(4)
		cur.Gauge("slim_broker_sessions").Set(7)
		cur.Gauge(`slim_broker_shard_sessions{shard="2"}`).Set(3)
		cur.Gauge(`slim_broker_shard_sessions{shard="0"}`).Set(1)
		cur.Gauge(`slim_broker_shard_sessions{shard="1"}`).Set(2)
		cur.Gauge(`slim_broker_shard_sessions{shard="3"}`).Set(1)
		// A stale label from a bigger fleet must be ignored, not crash.
		cur.Gauge(`slim_broker_shard_sessions{shard="9"}`).Set(99)
		prev.Counter("slim_broker_migrations_total").Add(2)
		cur.Counter("slim_broker_migrations_total").Add(5)
		for i := 0; i < 50; i++ {
			cur.Histogram("slim_broker_reattach_seconds").Observe(40 * time.Millisecond)
		}
	})
	l := Summarize(p, c, time.Second, time.UnixMilli(0))
	if l.FleetShards != 4 || l.FleetSessions != 7 {
		t.Fatalf("fleet fields = shards %d sessions %d, want 4/7", l.FleetShards, l.FleetSessions)
	}
	want := []int64{1, 2, 3, 1}
	for i, n := range want {
		if l.ShardSessions[i] != n {
			t.Fatalf("ShardSessions = %v, want %v", l.ShardSessions, want)
		}
	}
	if l.Migrations != 3 {
		t.Errorf("Migrations = %d, want 3 (windowed delta)", l.Migrations)
	}
	if l.Reattach.Count != 50 {
		t.Errorf("Reattach.Count = %d, want 50", l.Reattach.Count)
	}
	line := l.Format(time.UnixMilli(0))
	if !strings.Contains(line, "fleet 7/4sh [1 2 3 1]") {
		t.Errorf("line missing fleet column: %q", line)
	}
	if !strings.Contains(line, "mig 3") {
		t.Errorf("line missing migration count: %q", line)
	}
	// Bucketized percentile: assert presence and magnitude, not the exact
	// bucket boundary.
	if !strings.Contains(line, "reattach p99 ") {
		t.Errorf("line missing reattach p99: %q", line)
	}
	if l.Reattach.P99 < 0.02 || l.Reattach.P99 > 0.2 {
		t.Errorf("Reattach.P99 = %v, want ~40ms", l.Reattach.P99)
	}
}

// TestSummarizeHidesFleetColumnsForSingleServer: slimd scrapes carry no
// broker gauges, so the fleet column must not appear.
func TestSummarizeHidesFleetColumnsForSingleServer(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		cur.Gauge("slim_sessions").Set(2)
	})
	l := Summarize(p, c, time.Second, time.UnixMilli(0))
	if l.FleetShards != 0 || l.ShardSessions != nil {
		t.Fatalf("single-server scrape grew fleet fields: %+v", l)
	}
	if line := l.Format(time.UnixMilli(0)); strings.Contains(line, "fleet") {
		t.Errorf("single-server line mentions fleet: %q", line)
	}

	// A quiet fleet (no migrations, no hotdesks this window) shows
	// occupancy but neither the mig nor the reattach fragment.
	p, c = snapPair(func(prev, cur *obs.Registry) {
		cur.Gauge("slim_broker_shards").Set(2)
		cur.Gauge("slim_broker_sessions").Set(2)
		cur.Gauge(`slim_broker_shard_sessions{shard="0"}`).Set(1)
		cur.Gauge(`slim_broker_shard_sessions{shard="1"}`).Set(1)
	})
	line := Summarize(p, c, time.Second, time.UnixMilli(0)).Format(time.UnixMilli(0))
	if !strings.Contains(line, "fleet 2/2sh [1 1]") {
		t.Errorf("quiet fleet line = %q", line)
	}
	if strings.Contains(line, "mig") || strings.Contains(line, "reattach") {
		t.Errorf("quiet fleet line grew mig/reattach fragments: %q", line)
	}
}

func TestSummarizeNetQualColumn(t *testing.T) {
	now := time.UnixMilli(1_700_000_010_000)
	p, c := snapPair(func(prev, cur *obs.Registry) {
		cur.Counter("slim_netqual_rtt_samples_total").Add(40)
		cur.Gauge(`slim_netqual_srtt_ns{session="alice"}`).Set(12_000_000)
		cur.Gauge(`slim_netqual_srtt_ns{session="bob"}`).Set(48_000_000)
		cur.Gauge(`slim_netqual_jitter_ns{session="alice"}`).Set(3_000_000)
		cur.Gauge(`slim_netqual_jitter_ns{session="bob"}`).Set(1_000_000)
		cur.Gauge(`slim_netqual_loss_permille{session="alice"}`).Set(0)
		cur.Gauge(`slim_netqual_loss_permille{session="bob"}`).Set(25)
	})
	l := Summarize(p, c, time.Second, now)
	if l.NetQualSamples != 40 {
		t.Errorf("NetQualSamples = %d, want 40", l.NetQualSamples)
	}
	if l.NetRTT != 48*time.Millisecond {
		t.Errorf("NetRTT = %v, want 48ms (worst session wins)", l.NetRTT)
	}
	if l.NetJitter != 3*time.Millisecond {
		t.Errorf("NetJitter = %v, want 3ms", l.NetJitter)
	}
	if l.NetLossPermille != 25 {
		t.Errorf("NetLossPermille = %d, want 25", l.NetLossPermille)
	}
	line := l.Format(now)
	if !strings.Contains(line, "net rtt 48ms jit 3.00ms loss 2.5%") {
		t.Errorf("formatted line = %q, want net column with worst rtt/jitter/loss", line)
	}

	// A clean path drops the loss suffix but keeps rtt/jitter.
	l.NetLossPermille = 0
	if line := l.Format(now); strings.Contains(line, "loss") {
		t.Errorf("clean-path line mentions loss: %q", line)
	}
}

func TestNetQualColumnHiddenWithoutSamples(t *testing.T) {
	p, c := snapPair(func(prev, cur *obs.Registry) {
		// Gauges linger after the counter resets (daemon restart): the
		// column stays hidden until estimation produces round-trips.
		cur.Gauge(`slim_netqual_srtt_ns{session="alice"}`).Set(12_000_000)
	})
	l := Summarize(p, c, time.Second, time.UnixMilli(0))
	if l.NetQualSamples != 0 || l.NetRTT != 0 {
		t.Errorf("netqual = samples %d rtt %v, want hidden", l.NetQualSamples, l.NetRTT)
	}
	if line := l.Format(time.UnixMilli(0)); strings.Contains(line, "net rtt") {
		t.Errorf("sample-free line grew a net column: %q", line)
	}
}
