package slim

import (
	"bytes"
	"container/heap"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"slim/internal/netsim"
	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
)

// The overload end-to-end: eight sessions — six interactive terminals and
// two video players — share one simulated downstream link that shrinks
// from 10 Mbps to 1 Mbps mid-run. Without flow control the video traffic
// fills the link buffer and every keystroke echo queues behind it; with
// the grant-driven governor each session paces to its console's grant, a
// video frame the tokens cannot take is owed instead of encoded — repainted
// later from whatever frame is current — and interactive latency stays
// low. The test asserts the §7 claim quantitatively: p95 input-to-paint is
// lower with the governor than without, degradation shows up as owed
// frames rather than a collapsed queue, and the owed/utilization
// accounting is visible on the debug endpoint and in the flight ring.

// simEvent is one scheduled occurrence in the virtual-time run.
type simEvent struct {
	at   time.Duration
	ord  int // tie-break: FIFO among same-time events
	kind int
	desk string
	wire []byte
	key  uint16
}

const (
	evDeliver = iota // link delivered a server→console datagram
	evInput          // a user pressed a key at a desk
	evTick           // the server's frame clock (drives video apps)
	evPump           // governed: scheduled flow release
	evShrink         // the link narrows
)

type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].ord < h[j].ord
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); ev := old[n-1]; *h = old[:n-1]; return ev }

// overloadHarness is the virtual-time world: a Transport modelling one
// shared store-and-forward link, the consoles behind it, and the event
// queue gluing them to the server.
type overloadHarness struct {
	t        *testing.T
	srv      *Server
	consoles map[string]*Console

	link      netsim.Link
	busyUntil time.Duration
	queued    []struct {
		depart time.Duration
		size   int
	}
	queuedBytes int
	linkDrops   int
	frames      int // §5.4 frames put on the link

	now    time.Duration
	events eventHeap
	ord    int

	// cap, when enabled, records every datagram crossing the harness —
	// the same tap point the real transports use.
	cap *capture.Ring

	// paintAt records when each display sequence number reached its
	// console; inputs resolve against it after the run.
	paintAt map[string]map[uint32]time.Duration
}

func (h *overloadHarness) Addr() net.Addr { return fabricAddr{} }

func (h *overloadHarness) Close() error { return nil }

func (h *overloadHarness) schedule(ev simEvent) {
	ev.ord = h.ord
	h.ord++
	heap.Push(&h.events, ev)
}

// Send implements the Transport: display traffic (plain or batch frames)
// serializes through the shared link with tail drop; control traffic
// bypasses it (the paper's control plane is negligible next to pixels).
func (h *overloadHarness) Send(console string, wire []byte) error {
	if h.cap.Enabled() {
		h.cap.Tap(capture.DirDown, console, -1, wire, h.now)
	}
	w := append([]byte(nil), wire...)
	display := protocol.IsBatch(w) || isDisplayDatagram(w)
	if !display {
		h.schedule(simEvent{at: h.now + h.link.Prop, kind: evDeliver, desk: console, wire: w})
		return nil
	}
	for len(h.queued) > 0 && h.queued[0].depart <= h.now {
		h.queuedBytes -= h.queued[0].size
		h.queued = h.queued[1:]
	}
	if h.link.BufBytes > 0 && h.queuedBytes+len(w) > h.link.BufBytes {
		h.linkDrops++
		return nil // tail drop: the datagram vanishes, Nack recovery applies
	}
	start := h.now
	if h.busyUntil > start {
		start = h.busyUntil
	}
	depart := start + h.link.SerializeTime(len(w))
	h.busyUntil = depart
	h.queued = append(h.queued, struct {
		depart time.Duration
		size   int
	}{depart, len(w)})
	h.queuedBytes += len(w)
	h.schedule(simEvent{at: depart + h.link.Prop, kind: evDeliver, desk: console, wire: w})
	return nil
}

// SendBurst makes the harness a burst endpoint like the UDP listener: one
// server call's commands for a console cross the link packed into §5.4
// frames by the same packer.
func (h *overloadHarness) SendBurst(console string, wires [][]byte) error {
	return packAndSend(wires, func(datagram []byte, commands int) error {
		if commands > 1 {
			h.frames++
		}
		return h.Send(console, datagram)
	})
}

// markPainted records arrival times for every display seq in a frame.
func (h *overloadHarness) markPainted(desk string, wire []byte) {
	m := h.paintAt[desk]
	if protocol.IsBatch(wire) {
		seqs, msgs, err := protocol.DecodeBatch(wire)
		if err != nil {
			h.t.Fatal(err)
		}
		for i, msg := range msgs {
			if msg.Type().IsDisplay() {
				m[seqs[i]] = h.now
			}
		}
		return
	}
	seq, msg, _, err := protocol.Decode(wire)
	if err != nil {
		h.t.Fatal(err)
	}
	if msg.Type().IsDisplay() {
		m[seq] = h.now
	}
}

// inputRecord is one keystroke and the display seqs its echo produced.
type inputRecord struct {
	at   time.Duration
	desk string
	from uint32 // first seq of the echo (exclusive lower bound is from-1)
	to   uint32 // last seq
}

type overloadResult struct {
	p95       time.Duration
	latencies []time.Duration
	stale     int // inputs whose original echo never painted (shed or lost)
	linkDrops int
	frames    int // §5.4 frames the harness put on the link
	captured  int // records spooled from the run's capture ring
}

// runOverload drives the scenario and reports interactive latency. A
// non-nil spool receives, in .slimcap record encoding, every datagram the
// run puts on the simulated wire: a capture ring private to the run taps
// them and is spooled after every event, so it never fills.
func runOverload(t *testing.T, governed bool, kit *TelemetryKit, spool io.Writer) overloadResult {
	reg, rec := kit.Registry, kit.Flight
	t.Helper()
	const (
		nTerm     = 6
		nVideo    = 2
		simEnd    = 8 * time.Second
		inputFrom = 1500 * time.Millisecond
		inputStep = 100 * time.Millisecond
	)
	newApp := func(user string, w, hh int) Application {
		if strings.HasPrefix(user, "vid") {
			return NewVideoApp(NewMPEG2Source(7), Rect{X: 0, Y: 0, W: 128, H: 96}, CSCS8, 30)
		}
		return NewTerminal(w, hh)
	}
	h := &overloadHarness{
		t:        t,
		consoles: make(map[string]*Console),
		paintAt:  make(map[string]map[uint32]time.Duration),
		link:     netsim.Link{Bps: netsim.Rate10Mbps, Prop: 200 * time.Microsecond, BufBytes: 128 << 10},
	}
	if spool != nil {
		h.cap = capture.NewRing(1 << 12).Instrument(reg)
		h.cap.SetEnabled(true)
	}
	opts := []ServerOption{WithTelemetry(kit)}
	if governed {
		opts = append(opts, WithFlowControl(FlowConfig{InitialBps: 400_000}))
	}
	h.srv = NewServer(h, newApp, opts...)

	var desks []string
	for i := 0; i < nTerm+nVideo; i++ {
		user := "term"
		if i >= nTerm {
			user = "vid"
		}
		user += string(rune('0' + i))
		desk := "desk" + string(rune('0'+i))
		h.srv.Auth.Register("card-"+user, user)
		con, err := NewConsole(ConsoleConfig{
			Width: 160, Height: 120,
			TotalBps: 100_000, // the console's §7 downstream allocator
			Obs:      reg, Flight: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.consoles[desk] = con
		h.paintAt[desk] = make(map[uint32]time.Duration)
		desks = append(desks, desk)
		hello := con.Hello()
		hello.CardToken = "card-" + user
		if err := h.srv.Handle(desk, hello, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Schedule the run: frame ticks, the mid-run link shrink, and a
	// staggered keystroke trace on every terminal desk.
	for at := time.Duration(0); at < simEnd; at += 33 * time.Millisecond {
		h.schedule(simEvent{at: at, kind: evTick})
	}
	h.schedule(simEvent{at: time.Second, kind: evShrink})
	for i := 0; i < nTerm; i++ {
		stagger := time.Duration(i) * (inputStep / nTerm)
		for at := inputFrom + stagger; at < simEnd; at += inputStep {
			h.schedule(simEvent{at: at, kind: evInput, desk: desks[i], key: uint16('a' + i)})
		}
	}

	var inputs []inputRecord
	var res overloadResult
	pumpAt := time.Duration(-1)
	pump := func() {
		if !governed {
			return
		}
		next, pending, err := h.srv.PumpFlows(h.now)
		if err != nil {
			t.Fatal(err)
		}
		if pending && (pumpAt < h.now || next < pumpAt) {
			if next <= h.now {
				next = h.now + time.Millisecond
			}
			pumpAt = next
			h.schedule(simEvent{at: next, kind: evPump})
		}
	}

	for h.events.Len() > 0 {
		ev := heap.Pop(&h.events).(simEvent)
		h.now = ev.at
		switch ev.kind {
		case evShrink:
			h.link.Bps = netsim.Rate1Mbps
		case evTick:
			if err := h.srv.Tick(h.now); err != nil {
				t.Fatal(err)
			}
		case evInput:
			sess := h.srv.SessionOf(ev.desk)
			if sess == nil {
				t.Fatalf("no session on %s", ev.desk)
			}
			pre := sess.Encoder.LastSeq()
			if err := h.srv.Handle(ev.desk, &protocol.KeyEvent{Code: ev.key, Down: true}, h.now); err != nil {
				t.Fatal(err)
			}
			if post := sess.Encoder.LastSeq(); post > pre {
				inputs = append(inputs, inputRecord{at: h.now, desk: ev.desk, from: pre + 1, to: post})
			}
		case evDeliver:
			h.markPainted(ev.desk, ev.wire)
			replies, err := h.consoles[ev.desk].HandleDatagram(ev.wire, h.now)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range replies {
				if h.cap.Enabled() {
					h.cap.Tap(capture.DirUp, ev.desk, -1, r, h.now)
				}
				if err := h.srv.HandleDatagram(ev.desk, r, h.now); err != nil {
					t.Fatal(err)
				}
			}
		case evPump:
			// handled by the post-event pump below
		}
		pump()
		if spool != nil {
			n, err := h.cap.SpoolTo(spool)
			if err != nil {
				t.Fatal(err)
			}
			res.captured += n
		}
	}
	if n := h.cap.Drops(); n != 0 {
		t.Fatalf("the run's capture ring shed %d records", n)
	}
	for _, in := range inputs {
		painted := time.Duration(-1)
		complete := true
		for seq := in.from; seq <= in.to; seq++ {
			at, ok := h.paintAt[in.desk][seq]
			if !ok {
				complete = false
				break
			}
			if at > painted {
				painted = at
			}
		}
		if !complete {
			res.stale++ // echo shed as stale or lost on the wire
			continue
		}
		res.latencies = append(res.latencies, painted-in.at)
	}
	res.linkDrops, res.frames = h.linkDrops, h.frames
	if len(res.latencies) == 0 {
		t.Fatal("no input completed its paint")
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	res.p95 = res.latencies[len(res.latencies)*95/100]
	return res
}

// replayOverload runs the scenario twice in each mode, each run on its own
// telemetry kit and capture, and fails unless each mode's second run
// replays its first: the same latencies, stale inputs, link drops and
// frames, and the same digest of everything that crossed the wire. The
// four runs share nothing, so they run side by side (as many at once as
// -parallel allows): nearly all of a run's time is the video sessions'
// CSCS codec, which the race detector slows about tenfold. It returns
// each mode's first run and the governed one's kit.
func replayOverload(t *testing.T) (off, on overloadResult, kitOn *TelemetryKit) {
	t.Helper()
	var runs [4]overloadResult // off, off, on, on
	var kits [4]*TelemetryKit
	var digests [4][]byte
	t.Run("runs", func(t *testing.T) {
		for i := range runs {
			governed := i >= 2
			t.Run(fmt.Sprintf("governed=%v#%d", governed, i%2), func(t *testing.T) {
				t.Parallel()
				d := sha256.New()
				kits[i] = NewTelemetry()
				runs[i] = runOverload(t, governed, kits[i], d)
				digests[i] = d.Sum(nil)
			})
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	for i := 0; i < len(runs); i += 2 {
		a, b := runs[i], runs[i+1]
		if !slices.Equal(a.latencies, b.latencies) || a.stale != b.stale || a.linkDrops != b.linkDrops ||
			a.frames != b.frames || a.captured != b.captured || !bytes.Equal(digests[i], digests[i+1]) {
			t.Errorf("governed=%v does not replay: p95 %v/%v, %d/%d painted, %d/%d stale, %d/%d link drops, %d/%d frames, %d/%d captured, capture digests equal: %v",
				i >= 2, a.p95, b.p95, len(a.latencies), len(b.latencies), a.stale, b.stale, a.linkDrops, b.linkDrops,
				a.frames, b.frames, a.captured, b.captured, bytes.Equal(digests[i], digests[i+1]))
		}
	}
	return runs[0], runs[2], kits[2]
}

func TestOverloadGovernorDegradesGracefully(t *testing.T) {
	off, on, kitOn := replayOverload(t)
	regOn, recOn := kitOn.Registry, kitOn.Flight

	t.Logf("governor off: p95=%v inputs=%d stale=%d linkDrops=%d frames=%d",
		off.p95, len(off.latencies)+off.stale, off.stale, off.linkDrops, off.frames)
	t.Logf("governor on:  p95=%v inputs=%d stale=%d linkDrops=%d frames=%d",
		on.p95, len(on.latencies)+on.stale, on.stale, on.linkDrops, on.frames)

	// The wire-speed run hands whole repaints over at once, so it is the
	// one whose bursts must have crossed the link framed (the governed run
	// releases to its 400 kbit/s grant a command or two at a time).
	if off.frames == 0 {
		t.Error("no burst crossed the link as a §5.4 frame")
	}
	// The acceptance claim: pacing + admission keeps interaction fast on
	// the constricted link.
	if on.p95 >= off.p95 {
		t.Errorf("governed p95 %v not lower than ungoverned %v", on.p95, off.p95)
	}
	// Degradation is graceful: frames the grant cannot carry are owed at
	// the server instead of collapsing the link queue.
	snap := regOn.Snapshot()
	if snap.Counters["slim_flow_owed_total"] == 0 {
		t.Error("governor owed no frames under overload")
	}
	if on.linkDrops > off.linkDrops {
		t.Errorf("governed run dropped more on the link (%d) than ungoverned (%d)",
			on.linkDrops, off.linkDrops)
	}

	// The accounting is visible where an operator would look: the /debug
	// metrics exposition and the session's flight ring.
	req := httptest.NewRequest("GET", "/metrics", nil)
	rw := httptest.NewRecorder()
	obs.MetricsHandler(regOn, obs.Sim).ServeHTTP(rw, req)
	body, _ := io.ReadAll(rw.Result().Body)
	for _, want := range []string{"slim_flow_owed_total", "slim_flow_grant_utilization"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var sawOwe bool
	for _, id := range recOn.SessionIDs() {
		for _, ev := range recOn.Events(id, time.Hour) {
			sawOwe = sawOwe || ev.Kind == flight.EvOwe
		}
	}
	if !sawOwe {
		t.Error("flight rings hold no OWE event")
	}
}
