package main

import (
	"fmt"
	"time"
)

// The traced run: per-layer metrics for one workload. It spends its time
// budget on a short live window (driver diagnostics and the transport
// counters no replay can give), Pass A, the workload-specific extra
// passes, and Pass B.

// Event caps keep a traced pass's capture in memory: a type or fleet
// input captures ~50 bytes, a scroll step ~3 KB, a video frame ~60 KB.
func passAEvents(w workloadSpec) int {
	switch {
	case w.script == nil:
		return 200_000
	case w.name == "video_udp":
		return 480
	default:
		return 4_000
	}
}

// residualTolerance is how far below zero a replay residual may fall,
// as a share of its parent, before the traced run is declared unsound: a
// clearly negative residual means Pass B is not replaying what Pass A ran.
// What Pass B replays is checked exactly (command and byte counts); this
// is the coarser check that it also costs about what it cost in Pass A,
// and two passes a few seconds apart on these machines differ by up to a
// quarter when the layer is nearly all of its parent (video encode), so
// the line is drawn at half. (A variable so the smoke test, whose passes
// last a tenth of a second, can widen it further.)
var residualTolerance = 0.5

// traceDir is where span files go, relative to the checkout root the
// benchmark runs from (a variable so the smoke test can write elsewhere).
var traceDir = "bench/out"

// runPerLayer is one traced run of w: every per-layer metric, packed as a
// result. The returned error is a harness failure; a violated sanity
// check (stage sums, replay residuals, correctness gate) is printed and
// makes the result incorrect.
func runPerLayer(w workloadSpec, seed uint64, budget time.Duration) (result, error) {
	v := make(map[string]float64)
	var unsound error
	note := func(e error) {
		if unsound == nil {
			unsound = e
		}
	}

	in, err := generateInputs(w, seed)
	if err != nil {
		return result{}, err
	}

	// Live window: one segment, a third of the budget.
	live, err := runLive(w, seed, in, budget*3/10, 1)
	if err != nil {
		return result{}, err
	}
	if live.err != nil {
		note(live.err)
	}
	for name, value := range live.diagnostics(w) {
		v[name] = value
	}
	n := float64(live.painted())
	if !w.fabric && n > 0 {
		v["udp.tx_datagrams_per_event"] = float64(live.tx.txDatagrams) / n
		v["udp.rx_datagrams_per_event"] = float64(live.tx.rxDatagrams) / n
	}

	// Pass A.
	p, err := runPassA(w, in, budget*2/10, passAEvents(w))
	if err != nil {
		return result{}, err
	}
	defer p.rig.close()
	if err := p.rig.verify(); err != nil {
		note(err)
	}
	handle := meanCost(p.costs, func(c eventCost) int64 { return c.handle })
	self := meanCost(p.costs, func(c eventCost) int64 { return c.self })
	v["server.handle_us_per_event"] = handle
	v["server.self_us_per_event"] = self
	v["fabric.send_us_per_event"] = meanCost(p.costs, func(c eventCost) int64 { return c.send })
	v["app.render_us_per_event"] = meanCost(p.costs, func(c eventCost) int64 { return c.app })
	if !w.fabric {
		v["udp.wire_residual_us"] = v["driver.input_to_paint_p50_us"] - medianHandle(p.costs)
	}
	passAMallocs := float64(p.mallocs) / float64(p.events)

	// Workload-specific passes.
	if w.fabric {
		if v["broker.handle_us_per_event"], err = brokerShare(p, budget/10, passAEvents(w)); err != nil {
			return result{}, err
		}
		if v["broker.route_us_per_datagram"], err = replayRoute(p); err != nil {
			return result{}, err
		}
		for _, sessions := range []int{1, 8, 32} {
			cost, err := untracedCost(w, in, sessions, budget/10)
			if err != nil {
				return result{}, err
			}
			v[fmt.Sprintf("server.handle_us_per_event.n%d", sessions)] = cost
		}
		if untraced := v["server.handle_us_per_event.n32"]; untraced > 0 && p.events > 0 {
			traced := float64(p.elapsed) / 1e3 / float64(p.events)
			v["driver.trace_overhead_ratio"] = untraced / traced
		}
	}
	if w.name == "type_udp" {
		if v["obs.armed_overhead_us_per_event"], err = armedOverhead(w, in, budget/10); err != nil {
			return result{}, err
		}
	}

	// Pass B.
	enc, err := replayEncode(w, p)
	if err != nil {
		return result{}, err
	}
	v["core.encode_us_per_event"] = enc.encodeUS
	v["core.datagrams_per_event"] = enc.datagrams
	v["core.wire_bytes_per_event"] = enc.wireBytes
	v["core.compression_ratio"] = enc.compression
	v["core.codec2_hit_ratio"] = enc.hitRatio
	v["core.allocs_per_event"] = enc.allocs

	fl, err := replayFlow(w, p)
	if err != nil {
		return result{}, err
	}
	v["flow.submit_release_us_per_event"] = fl.submitReleaseUS
	v["flow.queue_wait_us_p90"] = fl.queueWaitP90US
	v["flow.superseded_per_event"] = fl.superseded
	v["flow.packets_per_item"] = fl.packetsPerItem
	v["flow.queue_depth_max"] = float64(fl.queueDepthMax)

	decodeUS, bytes, err := replayDecode(p)
	if err != nil {
		return result{}, err
	}
	v["protocol.decode_us_per_datagram"] = decodeUS
	v["protocol.bytes_per_datagram"] = bytes

	con, err := replayConsole(w, p)
	if err != nil {
		return result{}, err
	}
	v["console.handle_us_per_event"] = con.handleUS
	v["console.apply_us_per_datagram"] = con.perDatagramUS - decodeUS
	v["console.nacks_per_event"] = con.nacks
	v["console.dropped_per_event"] = con.dropped
	v["console.allocs_per_datagram"] = con.allocs
	_, timed := p.timedWires()
	v["server.allocs_per_event"] = passAMallocs - con.allocs*float64(len(timed))/float64(p.events)
	v["server.dispatch_us_per_event"] = self - enc.encodeUS - fl.submitReleaseUS

	if !w.fabric {
		us, errs, err := replayUDPSend(w, in, p, budget/10)
		if err != nil {
			return result{}, err
		}
		v["udp.send_us_per_datagram"] = us
		v["udp.tx_errors"] = float64(int64(errs) + live.tx.txErrors)
	}

	// Sanity: the replayed encoders must emit exactly the display commands
	// Pass A's encoders did (same seed, same ops, same output), replay
	// residuals may not be clearly negative, and the replayed console must
	// have kept up.
	if cmds, nbytes := p.displayTotals(); cmds != enc.commands || nbytes != enc.bytes {
		note(fmt.Errorf("%s: Pass A emitted %d display commands (%d bytes), the encode replay %d (%d bytes)", w.name, cmds, nbytes, enc.commands, enc.bytes))
	}
	if d := v["server.dispatch_us_per_event"]; d < -residualTolerance*self {
		note(fmt.Errorf("%s: server.dispatch residual %.3f us is below -%.0f%% of server.self %.3f us: Pass B is not replaying what Pass A ran", w.name, d, 100*residualTolerance, self))
	}
	if a := v["console.apply_us_per_datagram"]; a < -residualTolerance*con.perDatagramUS {
		note(fmt.Errorf("%s: console.apply residual %.3f us is below -%.0f%% of console handle %.3f us per datagram", w.name, a, 100*residualTolerance, con.perDatagramUS))
	}
	if con.dropped != 0 {
		note(fmt.Errorf("%s: replayed console dropped %.4f commands per input", w.name, con.dropped))
	}

	if err := p.rec.writeTrace(traceDir, w.name, p.warm, p.warm+p.events); err != nil {
		return result{}, err
	}
	if unsound != nil {
		fmt.Println("INCORRECT:", unsound)
	}
	return newResult(perLayerMetrics, w.name, v, live.attempted, live.failed, unsound == nil && live.failed == 0)
}
