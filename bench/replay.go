package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"time"

	"slim"
	"slim/internal/core"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
)

// Pass B: what Pass A captured is replayed into fresh public objects, one
// layer at a time, in a tight loop with nothing else running — each
// layer's own busy time, counted work and wasted work, without its
// neighbours. Replays run history from the attach onward so every
// stateful object (encoder, tile caches, governor, console) is in the
// state it was in during Pass A; only the timed events are priced. Loops
// are timed as a whole and divided, so clock reads do not inflate
// sub-microsecond calls.

// replayBlock is how many events the encoder runs ahead of the governor
// replay (their datagrams stay checked out of the wire-buffer pool
// meanwhile).
const replayBlock = 32

// mallocs collects garbage and reports the process's cumulative heap
// allocation count. Every timed section starts with it, so the section
// begins on a just-collected heap and — with hundreds of megabytes of rig
// alive — finishes before the collector runs again: Pass A and the
// replays are all priced without garbage-collection work in them.
func mallocs() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// freshEncoder builds an encoder in the state a session's encoder has
// right after a gen-2 console attached: instrumented like the server
// instruments it, tile path on, screen repainted.
func freshEncoder(w workloadSpec, reg *obs.Registry, rec *flight.Recorder, id uint32) *core.Encoder {
	enc := core.NewEncoder(w.w, w.h)
	enc.Metrics = core.NewEncoderMetrics(reg)
	enc.Flight = rec.Session(id)
	enc.EnableCodec2(0)
	for _, d := range enc.RepaintAll() {
		d.ReleaseWire()
	}
	return enc
}

// freshEncoders builds one such encoder per session of the traced rig.
func freshEncoders(w workloadSpec, p *passA) []*core.Encoder {
	reg := obs.NewRegistry(obs.DomainWall)
	frec := flight.New(obs.DomainWall)
	encs := make([]*core.Encoder, len(p.rig.seats))
	for s := range encs {
		encs[s] = freshEncoder(w, reg, frec, uint32(s+1))
	}
	return encs
}

// coreReplay is the encoder layer on its own.
type coreReplay struct {
	encodeUS, datagrams, wireBytes, allocs float64 // per event
	compression, hitRatio                  float64
	// commands and bytes are the exact totals behind datagrams and
	// wireBytes, for checking the replay against Pass A's capture.
	commands int
	bytes    int64
}

// replayEncode feeds every captured op, in order, to a fresh encoder per
// session and prices the timed events.
func replayEncode(w workloadSpec, p *passA) (coreReplay, error) {
	encs := freshEncoders(w, p)
	type totals struct {
		raw, wire int64
		cmds      int
		c2        core.Codec2Stats
	}
	sum := func() totals {
		var t totals
		for _, e := range encs {
			t.raw += e.Stats.TotalRawBytes()
			t.wire += e.Stats.TotalWireBytes()
			t.cmds += e.Stats.TotalCommands()
			c2 := e.Codec2Stats()
			t.c2.Hits += c2.Hits
			t.c2.Misses += c2.Misses
		}
		return t
	}
	run := func(ops []capturedOps) error {
		for _, c := range ops {
			for _, op := range c.ops {
				dgs, err := encs[c.session].Encode(op)
				if err != nil {
					return err
				}
				for i := range dgs {
					dgs[i].ReleaseWire()
				}
			}
		}
		return nil
	}
	split := sort.Search(len(p.rec.ops), func(i int) bool { return int(p.rec.ops[i].event) >= p.warm })
	if err := run(p.rec.ops[:split]); err != nil {
		return coreReplay{}, err
	}
	before, m0 := sum(), mallocs()
	t0 := time.Now()
	if err := run(p.rec.ops[split:]); err != nil {
		return coreReplay{}, err
	}
	elapsed := time.Since(t0)
	after, m1 := sum(), mallocs()
	n := float64(p.events)
	out := coreReplay{
		encodeUS:  float64(elapsed) / 1e3 / n,
		datagrams: float64(after.cmds-before.cmds) / n,
		wireBytes: float64(after.wire-before.wire) / n,
		allocs:    float64(m1-m0) / n,
		commands:  after.cmds - before.cmds,
		bytes:     after.wire - before.wire,
	}
	if wire := after.wire - before.wire; wire > 0 {
		out.compression = float64(after.raw-before.raw) / float64(wire)
	}
	hits, misses := after.c2.Hits-before.c2.Hits, after.c2.Misses-before.c2.Misses
	if hits+misses > 0 {
		out.hitRatio = float64(hits) / float64(hits+misses)
	}
	return out, nil
}

// flowReplay is the governor layer on its own.
type flowReplay struct {
	submitReleaseUS, superseded float64 // per event
	packetsPerItem              float64
	queueWaitP90US              float64 // virtual time
	queueDepthMax               int
}

// flowReplayer offers datagrams to one fresh governor per session under a
// 100 Mbit/s grant, on a virtual clock: event k arrives at k × period,
// and queued datagrams leave at the instants the governor itself names.
type flowReplayer struct {
	period time.Duration
	govs   []*flow.Governor
	// submitted maps session<<32|seq to the virtual submit time of every
	// datagram still queued.
	submitted map[uint64]time.Duration

	items, packets, superseded, depthMax int
	waits                                []int64 // virtual ns queued, timed events
}

func newFlowReplayer(sessions int, period time.Duration) *flowReplayer {
	const grantBps = 100_000_000
	f := &flowReplayer{period: period, submitted: make(map[uint64]time.Duration)}
	for s := 0; s < sessions; s++ {
		g := flow.NewGovernor(flow.Config{Enabled: true}, nil)
		g.SetGrant(0, grantBps)
		f.govs = append(f.govs, g)
	}
	return f
}

func flowKey(s int, seq uint32) uint64 { return uint64(s)<<32 | uint64(seq) }

// offer submits one event's datagrams and drains the session's queue.
func (f *flowReplayer) offer(c capturedOps, dgs []core.Datagram, timed bool) {
	s, now := int(c.session), time.Duration(c.event)*f.period
	g := f.govs[s]
	for _, d := range dgs {
		res := g.Submit(now, flow.Item{Seq: d.Seq, Cmd: d.Msg.Type(), Msg: d.Msg, Wire: d.Wire, Buf: d.Buf})
		f.submitted[flowKey(s, d.Seq)] = now
		for _, shed := range res.Superseded {
			delete(f.submitted, flowKey(s, shed.Seq))
		}
		for _, shed := range res.Evicted {
			delete(f.submitted, flowKey(s, shed.Seq))
		}
		if timed {
			f.superseded += len(res.Superseded)
		}
		f.depthMax = max(f.depthMax, res.Depth)
	}
	for guard := 0; guard < 1<<16; guard++ {
		for _, pk := range g.Release(now) {
			if timed {
				f.packets++
			}
			for _, it := range pk.Items {
				k := flowKey(s, it.Seq)
				if timed {
					f.items++
					f.waits = append(f.waits, int64(now-f.submitted[k]))
				}
				delete(f.submitted, k)
			}
		}
		next, ok := g.NextRelease(now)
		if g.QueueDepth() == 0 || !ok {
			return
		}
		now = max(next, now+time.Microsecond)
	}
}

// replayFlow re-encodes the captured ops (untimed) a block of events at a
// time and prices the governor on each block's datagrams.
func replayFlow(w workloadSpec, p *passA) (flowReplay, error) {
	encs := freshEncoders(w, p)
	f := newFlowReplayer(len(encs), p.period)
	runtime.GC()
	var busy time.Duration
	ops := p.rec.ops
	for len(ops) > 0 {
		// A block never straddles the warm-up boundary.
		timed := int(ops[0].event) >= p.warm
		n := 0
		for n < len(ops) && n < replayBlock && (int(ops[n].event) >= p.warm) == timed {
			n++
		}
		block := make([][]core.Datagram, n)
		for i, c := range ops[:n] {
			for _, op := range c.ops {
				dgs, err := encs[c.session].Encode(op)
				if err != nil {
					return flowReplay{}, err
				}
				block[i] = append(block[i], dgs...)
			}
		}
		t0 := time.Now()
		for i, c := range ops[:n] {
			f.offer(c, block[i], timed)
		}
		if timed {
			busy += time.Since(t0)
		}
		for _, dgs := range block {
			for i := range dgs {
				dgs[i].ReleaseWire()
			}
		}
		ops = ops[n:]
	}
	ev := float64(p.events)
	out := flowReplay{
		submitReleaseUS: float64(busy) / 1e3 / ev,
		superseded:      float64(f.superseded) / ev,
		queueWaitP90US:  quantile(sortedCopy(f.waits), 0.90) / 1e3,
		queueDepthMax:   f.depthMax,
	}
	if f.items > 0 {
		out.packetsPerItem = float64(f.packets) / float64(f.items)
	}
	return out, nil
}

// timedWires returns the captured datagrams of the timed events, and the
// ones before them (attach, first repaint, warm-up).
func (p *passA) timedWires() (before, timed []capturedWire) {
	split := sort.Search(len(p.rec.wires), func(i int) bool {
		return int(p.rec.wires[i].event) >= p.warm
	})
	return p.rec.wires[:split], p.rec.wires[split:]
}

// displayTotals counts the display commands among the timed datagrams
// Pass A captured, and their bytes.
func (p *passA) displayTotals() (commands int, bytes int64) {
	_, timed := p.timedWires()
	for _, c := range timed {
		if wire := p.rec.wire(c); len(wire) > 3 && protocol.MsgType(wire[3]).IsDisplay() && !protocol.IsBatch(wire) {
			commands++
			bytes += int64(c.n)
		}
	}
	return commands, bytes
}

// replayDecode prices protocol.DecodeAny on the timed datagrams:
// microseconds and bytes per datagram.
func replayDecode(p *passA) (us, bytes float64, err error) {
	_, timed := p.timedWires()
	if len(timed) == 0 {
		return 0, 0, nil
	}
	var total int
	runtime.GC()
	t0 := time.Now()
	for _, c := range timed {
		if _, _, err := protocol.DecodeAny(p.rec.wire(c)); err != nil {
			return 0, 0, err
		}
		total += c.n
	}
	n := float64(len(timed))
	return float64(time.Since(t0)) / 1e3 / n, float64(total) / n, nil
}

// consoleReplay is the console layer on its own.
type consoleReplay struct {
	handleUS, nacks, dropped float64 // per event
	perDatagramUS, allocs    float64 // per datagram
}

// replayConsole feeds every captured datagram, in order, to a fresh
// console per desk and prices the timed ones.
func replayConsole(w workloadSpec, p *passA) (consoleReplay, error) {
	cons := make([]*slim.Console, len(p.rig.seats))
	for i := range cons {
		c, err := slim.NewConsole(consoleConfig(w))
		if err != nil {
			return consoleReplay{}, err
		}
		cons[i] = c
	}
	nacks := 0
	run := func(wires []capturedWire) error {
		for _, c := range wires {
			replies, err := cons[c.console].HandleDatagram(p.rec.wire(c), time.Duration(c.event)*p.period)
			if err != nil {
				return err
			}
			for _, r := range replies {
				if len(r) > 3 && protocol.MsgType(r[3]) == protocol.TypeNack {
					nacks++
				}
			}
		}
		return nil
	}
	before, timed := p.timedWires()
	if err := run(before); err != nil {
		return consoleReplay{}, err
	}
	nacks = 0
	var dropped0 uint64
	for _, c := range cons {
		_, d := c.Counters()
		dropped0 += d
	}
	m0 := mallocs()
	t0 := time.Now()
	if err := run(timed); err != nil {
		return consoleReplay{}, err
	}
	elapsed := time.Since(t0)
	m1 := mallocs()
	var dropped uint64
	for _, c := range cons {
		_, d := c.Counters()
		dropped += d
	}
	ev, n := float64(p.events), float64(len(timed))
	out := consoleReplay{
		handleUS: float64(elapsed) / 1e3 / ev,
		nacks:    float64(nacks) / ev,
		dropped:  float64(dropped-dropped0) / ev,
	}
	if n > 0 {
		out.perDatagramUS = float64(elapsed) / 1e3 / n
		out.allocs = float64(m1-m0) / n
	}
	return out, nil
}

// replayUDPSend prices UDPServer.Send: the timed datagrams go out through
// a real ListenAndServeContext server to a sink socket dialed at it (the
// sink drains in the background, as a console would). It reports
// microseconds per datagram and how many sends failed.
func replayUDPSend(w workloadSpec, in *inputs, p *passA, budget time.Duration) (us float64, errs int, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var apps []*benchApp
	srv, err := slim.ListenAndServeContext(ctx, "127.0.0.1:0", appFactory(w, in, nil, &apps), serverOptions()...)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	sink, err := net.DialUDP("udp", nil, srv.Addr().(*net.UDPAddr))
	if err != nil {
		return 0, 0, err
	}
	defer sink.Close()
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := sink.Read(buf); err != nil {
				return
			}
		}
	}()
	// Any datagram teaches the server the sink's address; a Status from a
	// console that never said Hello is refused and forgotten.
	if _, err := sink.Write(protocol.Encode(nil, 0, &protocol.Status{})); err != nil {
		return 0, 0, err
	}
	id := sink.LocalAddr().String()
	probe := protocol.Encode(nil, 0, &protocol.Pong{})
	for deadline := time.Now().Add(time.Second); srv.Send(id, probe) != nil; {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("%s: UDP server never learned the sink's address", w.name)
		}
		time.Sleep(time.Millisecond)
	}
	_, timed := p.timedWires()
	n := 0
	t0 := time.Now()
	for _, c := range timed {
		if n%64 == 0 && time.Since(t0) > budget {
			break
		}
		if srv.Send(id, p.rec.wire(c)) != nil {
			errs++
		}
		n++
	}
	if n == 0 {
		return 0, 0, nil
	}
	return float64(time.Since(t0)) / 1e3 / float64(n), errs, nil
}

// replayRoute prices Broker.ShardFor, the broker's per-datagram routing
// step, on the fleet's own key datagrams.
func replayRoute(p *passA) (float64, error) {
	r := p.rig
	wires := make([][]byte, len(r.seats))
	for s, st := range r.seats {
		wires[s] = st.con.KeyInput('a', true)
	}
	const rounds = 20000
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for s, st := range r.seats {
			if _, ok := r.broker.ShardFor(st.desk, wires[s]); !ok {
				return 0, fmt.Errorf("%s: broker has no route for %s", r.w.name, st.desk)
			}
		}
	}
	return float64(time.Since(t0)) / 1e3 / float64(rounds*len(r.seats)), nil
}
