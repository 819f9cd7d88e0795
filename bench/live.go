package main

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The end-to-end run: the real pipeline input → server → encoder →
// governor → transport → console decode → paint, timed from outside with
// tracing off.

// Phase lengths around the measured window (variables so the smoke test
// can shorten them).
var (
	// settleTime is driven at the workload's own pace right before the
	// window and discarded: the governor's one-second demand window and
	// the console's grant settle to the offered load, so the window
	// measures steady state.
	settleTime = time.Second
	// quiesceTime lets in-flight datagrams and trailing acks land before
	// the frame buffers are compared.
	quiesceTime = 100 * time.Millisecond
)

// liveResult is what one end-to-end run measured.
type liveResult struct {
	setupS []float64 // every set-up's duration, seconds

	latNs  []int64 // t_paint − t_due per painted input
	lateNs []int64 // t_send − t_due per input (open-loop generator lag)

	attempted, failed int
	windowS           float64
	ratePerS          []float64 // every segment's inputs painted per second
	// cpuUS is process user+system CPU over the window minus the
	// driver thread's own; driverCPUUS is the part subtracted.
	cpuUS, driverCPUUS float64
	tx                 transportCounters
	heapMB             float64
	err                error // correctness-gate violation, if any
}

func (r *liveResult) painted() int { return r.attempted - r.failed }

// assemble builds a rig for w from pre-generated inputs — listen, dial,
// attach, first full repaint, closed-loop warm-up so caches fill and lazy
// set-up finishes — and reports how long that took.
func assemble(w workloadSpec, in *inputs) (rig, time.Duration, error) {
	t0 := time.Now()
	var r rig
	if w.fabric {
		fr, err := newFabricRig(w, in, w.sessions, true, nil)
		if err != nil {
			return nil, 0, err
		}
		fr.wall = time.Now()
		r = fr
	} else {
		ur, err := newUDPRig(w, in)
		if err != nil {
			return nil, 0, err
		}
		r = ur
	}
	for i := 0; i < w.warm; i++ {
		if err := r.input(i); err != nil {
			r.close()
			return nil, 0, fmt.Errorf("%s: warm-up input %d: %w", w.name, i, err)
		}
		if !r.painted(i, time.Now().Add(paintTimeout)) {
			r.close()
			return nil, 0, fmt.Errorf("%s: warm-up input %d never painted", w.name, i)
		}
	}
	return r, time.Since(t0), nil
}

// cpuTime reads user+system CPU for the process or, with
// syscall.RUSAGE_THREAD, the calling OS thread.
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC forces a collection and reports the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runLive measures one workload end to end. The window is cut into
// segments, each on a rig assembled from scratch: set-up, the settle
// phase, its share of the window, the correctness gate. Latency on a live
// loopback path shifts by several percent with where a rig's threads and
// tickers happen to land, and stays shifted for the rig's lifetime;
// pooling a few independent rigs into one run averages that out, and the
// set-ups double as the several samples setup_s is the median of.
//
// in is the inputs to replay when the caller already has them (the traced
// run reports no set-up time, so it does not pay for generating them
// again); nil generates them from seed, timed.
func runLive(w workloadSpec, seed uint64, in *inputs, window time.Duration, segments int) (*liveResult, error) {
	res := &liveResult{}
	var drv *driver
	if !w.fabric {
		// The UDP driver only generates load and polls for the paint, on
		// its own OS thread, so its CPU can be told apart from the
		// program's. On the fabric the driver's thread runs the program.
		drv = newDriver()
		defer drv.release()
	}
	// Size the sample buffers up front so a window never reallocates.
	guess := 1 << 22
	if w.rate > 0 {
		guess = int(w.rate*window.Seconds()) + 16*segments
	}
	res.latNs = make([]int64, 0, guess)
	res.lateNs = make([]int64, 0, guess)

	// Inputs are generated once per run and shared by its segments; every
	// set-up is charged the generation time, so setup_s is what a cold
	// start costs without the run paying for it five times.
	var gen time.Duration
	if in == nil {
		t0 := time.Now()
		var err error
		if in, err = generateInputs(w, seed); err != nil {
			return nil, err
		}
		gen = time.Since(t0)
	}

	for s := 0; s < segments; s++ {
		r, d, err := assemble(w, in)
		if err != nil {
			return nil, err
		}
		res.setupS = append(res.setupS, (gen + d).Seconds())
		next := drv.drive(r, w, w.warm, settleTime, nil)

		runtime.GC()
		tx0 := r.counters()
		cpu0, own0 := cpuTime(syscall.RUSAGE_SELF), drv.cpu()
		painted0, window0 := res.painted(), res.windowS
		drv.drive(r, w, next, window/time.Duration(segments), res)
		cpu1, own1 := cpuTime(syscall.RUSAGE_SELF), drv.cpu()
		res.ratePerS = append(res.ratePerS, float64(res.painted()-painted0)/(res.windowS-window0))
		res.tx = res.tx.add(r.counters().sub(tx0))
		res.cpuUS += float64(cpu1-cpu0) / 1e3
		res.driverCPUUS += float64(own1-own0) / 1e3

		time.Sleep(quiesceTime)
		if err := r.verify(); err != nil && res.err == nil {
			res.err = err
		}
		// Live heap, on the last rig: what is still allocated with the rig
		// alive, minus what is still allocated once it is terminated and
		// dropped — inputs and sample buffers cancel out, the sessions'
		// state remains.
		last := s == segments-1
		var held uint64
		if last {
			held = heapAfterGC()
		}
		r.close()
		r = nil
		if last {
			res.heapMB = (float64(held) - float64(heapAfterGC())) / (1 << 20)
		}
	}
	runtime.KeepAlive(in) // so the inputs are in both heap readings
	res.cpuUS -= res.driverCPUUS
	if res.err == nil && res.tx.txErrors != 0 {
		res.err = fmt.Errorf("%s: %d transport send errors", w.name, res.tx.txErrors)
	}
	return res, nil
}

// quantile reports the q-quantile of sorted (nearest rank).
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

// medianOf reports the median of v (0 when empty).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// endToEnd turns a run into the end-to-end metric values.
func (r *liveResult) endToEnd() map[string]float64 {
	m := map[string]float64{
		"setup_s":      medianOf(r.setupS),
		"events_per_s": medianOf(r.ratePerS),
		"live_heap_mb": r.heapMB,
	}
	if n := r.painted(); n > 0 {
		m["wire_bytes_per_event"] = float64(r.tx.txBytes) / float64(n)
	}
	return m
}

// diagnostics turns a run into the driver.* values every live window
// gives: the latency percentiles and the CPU figures, which on these
// machines do not repeat well enough to be gated (see README.md).
func (r *liveResult) diagnostics(w workloadSpec) map[string]float64 {
	lat, late := sortedCopy(r.latNs), sortedCopy(r.lateNs)
	n := float64(r.painted())
	m := map[string]float64{
		"driver.samples":               n,
		"driver.input_to_paint_p50_us": quantile(lat, 0.50) / 1e3,
		"driver.input_to_paint_p90_us": quantile(lat, 0.90) / 1e3,
		"driver.input_to_paint_p99_us": quantile(lat, 0.99) / 1e3,
	}
	over := r.failed
	for i := len(lat) - 1; i >= 0 && lat[i] > int64(150*time.Millisecond); i-- {
		over++
	}
	if r.attempted > 0 {
		m["driver.over_150ms_ratio"] = float64(over) / float64(r.attempted)
	}
	if n > 0 {
		m["driver.cpu_us_per_event"] = r.cpuUS / n
		if !w.fabric {
			m["driver.late_p99_us"] = quantile(late, 0.99) / 1e3
			m["driver.generator_cpu_us_per_event"] = r.driverCPUUS / n
		}
	}
	return m
}
