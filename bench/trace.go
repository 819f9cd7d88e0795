package main

import (
	"fmt"
	"slices"
	"time"

	"slim"
	"slim/internal/protocol"
)

// Pass A: the traced pass. The same server side, application, consoles
// and inputs as the live run, but on the in-process fabric, synchronous
// and on one goroutine, so every call into a layer can be bracketed by a
// span and every op and datagram captured for Pass B to replay. Transport
// time is virtual: input k arrives at k × period, and paced datagrams are
// released by jumping to the governor's next release instant instead of
// waiting for it.

// passA is one finished traced pass.
type passA struct {
	rec *recorder
	rig *fabricRig
	// warm events were replayed before timing began; events were timed.
	warm, events int
	period       time.Duration
	costs        []eventCost
	elapsed      time.Duration // wall time of the timed events
	mallocs      uint64        // heap allocations during the timed events
}

// closedLoopPeriod is the virtual time between inputs of a closed-loop
// workload in the traced pass (its live rate is ~150 000 inputs/s).
const closedLoopPeriod = 10 * time.Microsecond

// tracedInput drives input i into h — the rig's server side, or for the
// broker's share one of its shards — with a server.handle span around
// each of its two Handle calls, then releases whatever the flow governor
// held back (server.pump spans).
func tracedInput(r *fabricRig, rec *recorder, h slim.SessionHandler, i int, now time.Duration) error {
	rec.event, rec.cursor = setupEvent, int32(i)
	r.setClock(now)
	if err := r.idlePump(); err != nil {
		return err
	}
	s, code := r.owner(i)
	rec.event, rec.session = int32(i), int32(s)
	for _, down := range []bool{true, false} {
		sp := rec.begin(spanHandle)
		err := h.Handle(r.seats[s].desk, &protocol.KeyEvent{Code: code, Down: down}, now)
		rec.end(sp)
		if err != nil {
			return err
		}
	}
	if !r.painted(i, time.Now().Add(paintTimeout)) {
		return fmt.Errorf("%s: traced input %d never painted", r.w.name, i)
	}
	rec.event = setupEvent
	return nil
}

// runPassA assembles a traced rig and drives it: the workload's warm-up,
// then timed inputs until budget wall time or maxEvents.
func runPassA(w workloadSpec, in *inputs, budget time.Duration, maxEvents int) (*passA, error) {
	rec := newRecorder()
	rig, err := newFabricRig(w, in, w.sessions, w.fabric, rec)
	if err != nil {
		return nil, err
	}
	p := &passA{rec: rec, rig: rig, warm: w.warm, period: w.period()}
	if p.period == 0 {
		p.period = closedLoopPeriod
	}
	i := 0
	for ; i < w.warm; i++ {
		if err := tracedInput(rig, rec, rig.dir, i, time.Duration(i)*p.period); err != nil {
			rig.close()
			return nil, err
		}
	}
	m0 := mallocs()
	start := time.Now()
	for ; i-w.warm < maxEvents; i++ {
		if i%64 == 0 && time.Since(start) > budget {
			break
		}
		if err := tracedInput(rig, rec, rig.dir, i, time.Duration(i)*p.period); err != nil {
			rig.close()
			return nil, err
		}
	}
	p.elapsed = time.Since(start)
	p.mallocs = mallocs() - m0
	p.events = i - w.warm
	rec.capturing = false
	if p.costs, err = rec.costs(w.warm, i); err != nil {
		rig.close()
		return nil, err
	}
	return p, nil
}

// meanCost averages one field of the per-event costs, in microseconds.
func meanCost(costs []eventCost, f func(eventCost) int64) float64 {
	if len(costs) == 0 {
		return 0
	}
	var sum int64
	for _, c := range costs {
		sum += f(c)
	}
	return float64(sum) / float64(len(costs)) / 1e3
}

// medianHandle is the median per-event server.handle time in microseconds.
func medianHandle(costs []eventCost) float64 {
	if len(costs) == 0 {
		return 0
	}
	v := make([]int64, len(costs))
	for i, c := range costs {
		v[i] = c.handle
	}
	slices.Sort(v)
	return float64(v[len(v)/2]) / 1e3
}

// brokerShare continues a fleet's traced pass to price the broker's own
// share of server.handle: inputs alternate between going through the
// broker and going straight into the shard that hosts their session,
// under the same spans, and the difference between the two means is what
// the broker adds. Alternating on one rig keeps drift out of a number
// that is a few hundred nanoseconds.
func brokerShare(p *passA, budget time.Duration, maxEvents int) (float64, error) {
	r, rec := p.rig, p.rec
	n := len(r.seats)
	shards := make([]slim.SessionHandler, n)
	for s, st := range r.seats {
		idx, ok := r.broker.ShardFor(st.desk, st.con.KeyInput(0, true))
		if !ok {
			return 0, fmt.Errorf("%s: broker has no route for %s", r.w.name, st.desk)
		}
		shards[s] = r.broker.Shard(idx)
	}
	// Sessions are visited round-robin, so alternating by round gives
	// every session both kinds of input.
	direct := func(i int) bool { return (i/n)%2 == 1 }
	first := p.warm + p.events
	i := first
	for start := time.Now(); i-first < maxEvents; i++ {
		if i%64 == 0 && time.Since(start) > budget {
			break
		}
		var h slim.SessionHandler = r.broker
		if direct(i) {
			h = shards[i%n]
		}
		if err := tracedInput(r, rec, h, i, time.Duration(i)*p.period); err != nil {
			return 0, err
		}
	}
	costs, err := rec.costs(first, i)
	if err != nil {
		return 0, err
	}
	var sum, count [2]float64
	for k, c := range costs {
		idx := 0
		if direct(first + k) {
			idx = 1
		}
		sum[idx] += float64(c.handle)
		count[idx]++
	}
	if count[0] == 0 || count[1] == 0 {
		return 0, nil
	}
	return (sum[0]/count[0] - sum[1]/count[1]) / 1e3, nil
}

// untracedCost drives an untraced fabric rig of the given size closed
// loop on the virtual clock for budget, and reports the mean wall time
// per input in microseconds. It prices server.handle against session
// count (.n1/.n8/.n32) and is the untraced side of the tracing overhead.
func untracedCost(w workloadSpec, in *inputs, sessions int, budget time.Duration) (float64, error) {
	r, err := newFabricRig(w, in, sessions, w.fabric, nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	period := w.period()
	if period == 0 {
		period = closedLoopPeriod
	}
	warm := 64 * sessions
	n := 0
	var start time.Time
	for i := 0; ; i++ {
		if i == warm {
			start = time.Now()
		}
		if i >= warm && i%64 == 0 && time.Since(start) > budget {
			n = i - warm
			break
		}
		r.setClock(time.Duration(i) * period)
		if err := r.input(i); err != nil {
			return 0, err
		}
		if !r.painted(i, time.Now().Add(paintTimeout)) {
			return 0, fmt.Errorf("%s: n%d input %d never painted", w.name, sessions, i)
		}
	}
	if n == 0 {
		return 0, nil
	}
	return float64(time.Since(start)) / float64(n) / 1e3, nil
}

// Telemetry arming through the public facade. The library default is the
// flight recorder and SLO tracker on, netqual and the capture ring off.
func setTelemetry(on bool) {
	slim.FlightRecorder().SetEnabled(on)
	slim.SLO().SetEnabled(on)
	slim.SetNetQualEnabled(on)
	slim.Capture().SetEnabled(on)
}

func restoreTelemetry() {
	slim.FlightRecorder().SetEnabled(true)
	slim.SLO().SetEnabled(true)
	slim.SetNetQualEnabled(false)
	slim.Capture().SetEnabled(false)
}

// armedOverhead prices having every observer switched on: an untraced
// single-server fabric rig is driven in alternating blocks with the
// flight recorder, SLO tracker, netqual and capture ring all disarmed and
// all armed, and the difference between the two block medians is the
// cost per input in microseconds. Alternating blocks on one rig cancels
// the drift that two separate passes would put between the numbers.
func armedOverhead(w workloadSpec, in *inputs, budget time.Duration) (float64, error) {
	defer restoreTelemetry()
	r, err := newFabricRig(w, in, 1, false, nil)
	if err != nil {
		return 0, err
	}
	defer r.close()
	const block = 1000
	period := w.period()
	var blocks [2][]float64 // mean µs per input, by armed
	start := time.Now()
	for i, b := 0, 0; time.Since(start) < budget || len(blocks[1]) < 3; b++ {
		armed := b%2 == 1
		setTelemetry(armed)
		t0 := time.Now()
		for end := i + block; i < end; i++ {
			r.setClock(time.Duration(i) * period)
			if err := r.input(i); err != nil {
				return 0, err
			}
			if !r.painted(i, time.Now().Add(paintTimeout)) {
				return 0, fmt.Errorf("%s: telemetry-variant input %d never painted", w.name, i)
			}
		}
		if b >= 2 { // the first block of each kind warms the rig up
			idx := 0
			if armed {
				idx = 1
			}
			blocks[idx] = append(blocks[idx], float64(time.Since(t0))/block/1e3)
		}
	}
	return medianOf(blocks[1]) - medianOf(blocks[0]), nil
}
