package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// metricDef names one metric. BENCHMARK.json at the repository root lists
// the same names, units and bounds; a test checks the file against these
// tables.
type metricDef struct {
	name, unit string
	higher     bool    // better is higher
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
	// on lists the workloads a per-layer metric is measured on; empty is
	// all of them. Elsewhere it is reported as 0.
	on   []string
	help string
}

// End-to-end metrics: what a user of the system would see, measured with
// tracing off. Only what repeats from run to run on the two-core virtual
// machines this benchmark runs on is here; input-to-paint latency and CPU
// per input are driver.* diagnostics (README.md has the measured spreads).
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25,
		help: "input generation + listen + dial + attach + first full repaint + warm-up; median of the run's set-ups"},
	{name: "events_per_s", unit: "1/s", higher: true, bound: 0.25,
		help: "inputs painted per second of window, median of the run's segments: the offered rate in open loop, the result in closed loop"},
	{name: "wire_bytes_per_event", unit: "B", bound: 0.05,
		help: "server-to-console bytes on the transport per input painted"},
	{name: "live_heap_mb", unit: "MB", bound: 0.10,
		help: "heap still allocated after a forced GC with the rig alive, less the same once it is terminated"},
}

var (
	udpOnly   = []string{"type_udp", "scroll_udp", "video_udp"}
	fleetOnly = []string{"fleet_fabric"}
	typeOnly  = []string{"type_udp"}
)

// Per-layer metrics: the traced pass (Pass A), the per-layer replays
// (Pass B) and a short live window. Layer is the name's first component.
var perLayerMetrics = []metricDef{
	{name: "udp.send_us_per_datagram", unit: "us", on: udpOnly, help: "UDPServer.Send of the captured datagrams to a dialed sink"},
	{name: "udp.tx_datagrams_per_event", unit: "count", on: udpOnly, help: "server-to-console datagrams per input, live"},
	{name: "udp.rx_datagrams_per_event", unit: "count", on: udpOnly, help: "console-to-server datagrams per input (keys, acks, grants), live"},
	{name: "udp.tx_errors", unit: "count", on: udpOnly, help: "failed sends, live window plus replay"},
	{name: "udp.wire_residual_us", unit: "us", on: udpOnly, help: "live p50 minus Pass-A server.handle p50: socket, wake-up and poll share"},

	{name: "server.handle_us_per_event", unit: "us", help: "time inside the server side's Handle (and pumps) per input, Pass A"},
	{name: "server.self_us_per_event", unit: "us", help: "handle minus app.render minus fabric.send"},
	{name: "server.dispatch_us_per_event", unit: "us", help: "self minus replayed encode minus replayed flow: decode, locking, session lookup, queueing"},
	{name: "server.allocs_per_event", unit: "count", help: "heap allocations per input in Pass A, less the replayed console's"},
	{name: "server.handle_us_per_event.n1", unit: "us", on: fleetOnly, help: "untraced closed-loop cost per input with 1 session on the fleet"},
	{name: "server.handle_us_per_event.n8", unit: "us", on: fleetOnly, help: "the same with 8 sessions"},
	{name: "server.handle_us_per_event.n32", unit: "us", on: fleetOnly, help: "the same with 32 sessions"},

	{name: "broker.route_us_per_datagram", unit: "us", on: fleetOnly, help: "Broker.ShardFor on the fleet's key datagrams"},
	{name: "broker.handle_us_per_event", unit: "us", on: fleetOnly, help: "server.handle through the broker minus the same inputs sent straight to their shard, alternating on one rig"},

	{name: "core.encode_us_per_event", unit: "us", help: "Encoder.Encode of the captured ops, replayed"},
	{name: "core.datagrams_per_event", unit: "count", help: "display commands emitted per input"},
	{name: "core.wire_bytes_per_event", unit: "B", help: "display bytes emitted per input"},
	{name: "core.compression_ratio", unit: "ratio", higher: true, help: "3 B/px raw over wire bytes"},
	{name: "core.codec2_hit_ratio", unit: "ratio", higher: true, help: "tile-cache hits over probes (0 when the tile path is not probed)"},
	{name: "core.allocs_per_event", unit: "count", help: "heap allocations per input in the encode replay"},

	{name: "flow.submit_release_us_per_event", unit: "us", help: "Governor.Submit/Release/NextRelease per input, replayed at a 100 Mbit/s grant"},
	{name: "flow.queue_wait_us_p90", unit: "us", help: "90th percentile of virtual time a datagram waits for tokens"},
	{name: "flow.superseded_per_event", unit: "count", help: "queued commands shed because newer ones cover them"},
	{name: "flow.packets_per_item", unit: "ratio", help: "transport packets per released command (below 1 when batching coalesces)"},
	{name: "flow.queue_depth_max", unit: "count", help: "deepest governor queue seen"},

	{name: "protocol.decode_us_per_datagram", unit: "us", help: "protocol.DecodeAny of the captured datagrams"},
	{name: "protocol.bytes_per_datagram", unit: "B", help: "mean captured datagram size"},

	{name: "console.handle_us_per_event", unit: "us", help: "Console.HandleDatagram of the captured datagrams per input, replayed"},
	{name: "console.apply_us_per_datagram", unit: "us", help: "console handle minus protocol decode, per datagram"},
	{name: "console.nacks_per_event", unit: "count", help: "NACKs the replayed console sent"},
	{name: "console.dropped_per_event", unit: "count", help: "commands the replayed console dropped"},
	{name: "console.allocs_per_datagram", unit: "count", help: "heap allocations per datagram in the console replay"},

	{name: "fabric.send_us_per_event", unit: "us", help: "time inside Transport.Send (delivery, console decode and paint) per input, Pass A"},
	{name: "app.render_us_per_event", unit: "us", help: "time inside the wrapped application per input; about 0 by construction"},
	{name: "obs.armed_overhead_us_per_event", unit: "us", on: typeOnly, help: "cost per input of arming flight recorder, SLO tracker, netqual and capture ring, against all four off"},

	{name: "driver.samples", unit: "count", higher: true, help: "inputs painted in the live window"},
	{name: "driver.input_to_paint_p50_us", unit: "us", help: "median t_paint - t_due over the live window"},
	{name: "driver.input_to_paint_p90_us", unit: "us", help: "90th percentile of t_paint - t_due"},
	{name: "driver.input_to_paint_p99_us", unit: "us", help: "99th percentile of t_paint - t_due"},
	{name: "driver.late_p99_us", unit: "us", on: udpOnly, help: "open-loop generator lag: 99th percentile of t_send - t_due"},
	{name: "driver.over_150ms_ratio", unit: "ratio", help: "share of inputs over the paper's 150 ms limit (failed inputs count)"},
	{name: "driver.cpu_us_per_event", unit: "us", help: "process user+system CPU over the live window, less the load generator's own thread, per input painted"},
	{name: "driver.generator_cpu_us_per_event", unit: "us", on: udpOnly, help: "the load generator thread's CPU per input, which driver.cpu_us_per_event excludes"},
	{name: "driver.trace_overhead_ratio", unit: "ratio", higher: true, on: fleetOnly, help: "traced over untraced inputs per second on the fabric"},
}

func (d metricDef) better() string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

func (d metricDef) measuredOn(workload string) bool {
	if len(d.on) == 0 {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// printList is -list: every metric name and unit, without running.
func printList(w io.Writer) {
	fmt.Fprintln(w, "end-to-end (tracing off):")
	for _, d := range endToEndMetrics {
		fmt.Fprintf(w, "  %-36s %-6s better=%-6s bound=%.2f  %s\n", d.name, d.unit, d.better(), d.bound, d.help)
	}
	fmt.Fprintln(w, "per-layer (traced run):")
	for _, d := range perLayerMetrics {
		on := "all workloads"
		if len(d.on) > 0 {
			on = strings.Join(d.on, ",")
		}
		fmt.Fprintf(w, "  %-36s %-6s better=%-6s [%s]  %s\n", d.name, d.unit, d.better(), on, d.help)
	}
}

// runSeconds is how long one run measures when -seconds is not given; it
// is also BENCHMARK.json's run_seconds.
const runSeconds = 20

// result is one run's outcome in the shape the benchmark contract asks
// for on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// newResult packs values for the given metric definitions, checking that
// every one is present and finite.
func newResult(defs []metricDef, workload string, values map[string]float64, attempted, failed int, correct bool) (result, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && d.measuredOn(workload) {
			return res, fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is not finite", workload, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// print writes every metric by name with its unit, in table order.
func (r result) print(w io.Writer, workload string, defs []metricDef) {
	for _, d := range defs {
		note := ""
		if !d.measuredOn(workload) {
			note = "  (not measured on this workload)"
		}
		fmt.Fprintf(w, "%-14s %-36s %16.4f %s%s\n", workload, d.name, r.Metrics[d.name].Value, d.unit, note)
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "%-14s %-36s %16.4f ratio  (%d failed of %d attempted)\n", workload, "failed_ratio", ratio, r.Failed, r.Attempted)
}
