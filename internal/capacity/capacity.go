// Package capacity answers the sizing question the paper's §6 sharing
// experiments circle around: how many interactive users fit on one SLIM
// server before the latency SLO burns? It composes the existing simulation
// substrate — trace-driven resource profiles (internal/loadgen), fluid
// processor sharing (internal/sched), and the store-and-forward fabric
// (internal/netsim) — into a ramp: simulate N mixed-profile sessions,
// derive the per-event input-to-paint latency a yardstick user would see,
// feed every event through a sim-domain SLO tracker (internal/obs/slo),
// and step N upward until the mid-window burn rate crosses a threshold.
// The output is a users-versus-percentile curve per scenario, committed as
// BENCH_capacity.json so capacity regressions show up in review diffs.
//
// The per-event latency model follows the paper's decomposition:
//
//	latency = server CPU (yardstick service + sharing-added delay, §6.1)
//	        + wire (downstream queueing + serialization + propagation, §5)
//	        + loss recovery (NACK detection + retransmit RTT, when injected)
//	        + console decode (§4.3 cost model scale)
//
// CPU-added delays are sampled from the sched.Run yardstick distribution;
// wire delays come from probe packets run through the contended link
// alongside every session's profiled display traffic.
package capacity

import (
	"fmt"
	"io"
	"time"

	"slim/internal/loadgen"
	"slim/internal/netsim"
	"slim/internal/obs"
	"slim/internal/obs/slo"
	"slim/internal/sched"
	"slim/internal/stats"
	"slim/internal/workload"
)

// Yardstick event shape (§6.1): 30 ms of dedicated CPU per interactive
// event, 150 ms of think time, so events arrive roughly every 180 ms.
const (
	yardService = 30 * time.Millisecond
	yardThink   = 150 * time.Millisecond
	// decodeCost is the console-side decode+paint charge per event, the
	// Table 5 scale for a typical damage response.
	decodeCost = 2 * time.Millisecond
	// probeBytes is the display response a yardstick event ships — one
	// MTU-sized datagram probed through the contended downstream link.
	probeBytes = 1400
)

// Scenario parameterizes one capacity ramp.
type Scenario struct {
	// Name labels the curve in BENCH_capacity.json ("lan", "wan").
	Name string `json:"name"`
	// LinkBps, Prop, and BufBytes shape the shared downstream link every
	// session's display traffic and the probe stream contend for.
	LinkBps  float64       `json:"link_bps"`
	Prop     time.Duration `json:"prop_ns"`
	BufBytes int           `json:"buf_bytes"`
	// LossPct injects random display-datagram loss: each yardstick event
	// loses its response with this probability and pays NACK-detection plus
	// retransmit recovery on the wire.
	LossPct float64 `json:"loss_pct"`
	// CPUs and RAMMB size the server for the processor-sharing model.
	CPUs        int     `json:"cpus"`
	RAMMB       float64 `json:"ram_mb"`
	PagePenalty float64 `json:"-"`
	// Apps is the session mix, cycled across users (defaults to the full
	// Table 2 corpus).
	Apps []workload.App `json:"apps"`
	// SessionLen is the simulated duration of each ramp point.
	SessionLen time.Duration `json:"session_len_ns"`
	// Start, Step, MaxUsers bound the ramp.
	Start, Step, MaxUsers int
	// SLO is the objective (zero fields take the paper defaults); the ramp
	// stops once the mid-window burn reaches BurnThreshold (default 1.0,
	// i.e. the error budget is being spent as fast as it accrues).
	SLO           slo.Config `json:"-"`
	BurnThreshold float64    `json:"burn_threshold"`
	Seed          uint64     `json:"seed"`
}

// withDefaults fills zero fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Name == "" {
		sc.Name = "custom"
	}
	if sc.LinkBps <= 0 {
		sc.LinkBps = netsim.Rate100Mbps
	}
	if sc.CPUs <= 0 {
		sc.CPUs = 4
	}
	if len(sc.Apps) == 0 {
		sc.Apps = workload.Apps
	}
	if sc.SessionLen <= 0 {
		sc.SessionLen = 2 * time.Minute
	}
	if sc.Start <= 0 {
		sc.Start = 2
	}
	if sc.Step <= 0 {
		sc.Step = 2
	}
	if sc.MaxUsers <= 0 {
		sc.MaxUsers = 64
	}
	if sc.BurnThreshold <= 0 {
		sc.BurnThreshold = 1
	}
	if sc.Seed == 0 {
		sc.Seed = 1999
	}
	return sc
}

// LAN is the dedicated-fabric configuration of the paper's testbed: a
// 100 Mbps switched link, negligible propagation, capacity bound by
// processor sharing rather than the wire.
func LAN() Scenario {
	return Scenario{
		Name:    "lan",
		LinkBps: netsim.Rate100Mbps,
		Prop:    100 * time.Microsecond,
		CPUs:    4,
		RAMMB:   1024,
	}
}

// WAN is the degraded remote-access configuration the §5.4 bandwidth
// sweeps anticipate: a shared 10 Mbps uplink with 40 ms propagation,
// finite switch buffers, and 0.5% display-datagram loss — capacity bound
// by queueing and recovery rather than CPU. The rates below 10 Mbps the
// paper sweeps in Figure 6 are hopeless for a *shared* 150 ms objective
// (one user's 64 KB display burst alone takes ~260 ms to drain at
// 2 Mbps), and at 1% injected loss the 1% budget is consumed by recovery
// alone — every lost event pays a ~180 ms NACK round trip. This
// configuration leaves headroom for the ramp to find the queueing knee.
func WAN() Scenario {
	return Scenario{
		Name:       "wan",
		LinkBps:    netsim.Rate10Mbps,
		Prop:       40 * time.Millisecond,
		BufBytes:   128 * 1024,
		LossPct:    0.005,
		CPUs:       4,
		RAMMB:      1024,
		Start:      1,
		Step:       1,
		SessionLen: 4 * time.Minute,
	}
}

// Point is one ramp step's measurement.
type Point struct {
	Users int `json:"users"`
	// P50Ms..P99Ms are the yardstick's input-to-paint percentiles.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	// BreachPct and Burn are the SLO tracker's mid-window evaluation at the
	// end of the point; State is the fleet health it settled in.
	BreachPct float64 `json:"breach_pct"`
	Burn      float64 `json:"burn"`
	State     string  `json:"state"`
	Events    int     `json:"events"`
}

// Curve is one scenario's ramp result.
type Curve struct {
	Scenario Scenario `json:"scenario"`
	Points   []Point  `json:"points"`
	// CapacityUsers is the largest user count whose mid-window burn stayed
	// below the threshold (0 if even the first point burned).
	CapacityUsers int `json:"capacity_users"`
	// Saturated reports whether the ramp found the knee (false means it
	// ran out of MaxUsers first).
	Saturated bool `json:"saturated"`
}

// Bench is the committed BENCH_capacity.json document.
type Bench struct {
	Schema    string  `json:"schema"`
	Scenarios []Curve `json:"scenarios"`
}

// BenchSchema versions the document shape for the CI smoke test.
const BenchSchema = "slim-capacity/v1"

// Progress receives one line per completed ramp point (nil discards).
type Progress func(Point)

// RunScenario ramps the scenario and returns its curve. Deterministic for
// a fixed scenario (all randomness flows from Seed).
func RunScenario(sc Scenario, progress Progress) Curve {
	sc = sc.withDefaults()
	curve := Curve{Scenario: sc}

	// Profile the session corpus once at MaxUsers; smaller points reuse a
	// prefix. Profiles are the expensive part of a point (each is a full
	// synthetic session trace), and sharing them also makes the ramp
	// monotone in load rather than re-rolling the population each step.
	profiles := make([]*workload.Profile, 0, sc.MaxUsers)
	for u := 0; u < sc.MaxUsers; u++ {
		app := sc.Apps[u%len(sc.Apps)]
		m := workload.ModelFor(app)
		sess := workload.NewSession(app, u, sc.Seed)
		tr := sess.Run(sc.SessionLen)
		profiles = append(profiles, workload.BuildProfile(m, tr, sc.Seed^uint64(u)<<32))
	}

	for n := sc.Start; n <= sc.MaxUsers; n += sc.Step {
		pt := runPoint(sc, profiles[:n])
		curve.Points = append(curve.Points, pt)
		if progress != nil {
			progress(pt)
		}
		if pt.Burn >= sc.BurnThreshold {
			curve.Saturated = true
			break
		}
		curve.CapacityUsers = n
	}
	return curve
}

// runPoint simulates one user count and evaluates the SLO over it.
func runPoint(sc Scenario, profiles []*workload.Profile) Point {
	n := len(profiles)
	rng := stats.NewRNG(sc.Seed ^ uint64(n)<<16)

	// CPU: fluid processor sharing of n profiled sessions plus the
	// yardstick; the Added CDF is the sharing-induced delay distribution.
	bg := make([]sched.Source, n)
	for i, p := range profiles {
		bg[i] = loadgen.NewCPUSource(p, sc.Seed^uint64(i)<<8)
	}
	yard := &loadgen.FixedSource{Service: yardService, Think: yardThink, Mem: 20}
	cpu := sched.Run(sched.Config{
		CPUs: sc.CPUs, RAMMB: sc.RAMMB, PagePenalty: sc.PagePenalty,
	}, bg, yard, sc.SessionLen)

	// Wire: every session's profiled display traffic plus one probe
	// datagram per yardstick event, all contending for the downstream link.
	period := yardService + yardThink
	events := int(sc.SessionLen / period)
	if events < 1 {
		events = 1
	}
	var pkts []netsim.Packet
	for i, p := range profiles {
		pkts = append(pkts, loadgen.NetPackets(p, i, 0, sc.SessionLen, sc.Seed^uint64(i)<<24)...)
	}
	eventT := make([]time.Duration, events)
	for i := range eventT {
		eventT[i] = time.Duration(i)*period + time.Duration(rng.Range(0, float64(period/4)))
		pkts = append(pkts, netsim.Packet{T: eventT[i], Size: probeBytes, Flow: -1})
	}
	// Deliveries come back in departure order with drops at the tail, so
	// probes re-join their events by arrival time (unique per event).
	link := &netsim.Link{Bps: sc.LinkBps, Prop: sc.Prop, BufBytes: sc.BufBytes}
	probes := make(map[time.Duration]netsim.Delivery, events)
	for _, d := range link.Run(pkts) {
		if d.Flow == -1 {
			probes[d.T] = d
		}
	}

	// Loss recovery: the console notices the gap when the next datagram
	// lands (~one event period of detection in the worst case, half on
	// average) and the retransmit pays another RTT through the queue.
	serialize := link.SerializeTime(probeBytes)
	recovery := period/2 + 2*sc.Prop + 2*serialize

	tracker := slo.New(obs.NewClock(obs.DomainSim), sc.SLO)
	sess := tracker.Session(1, "yardstick")
	lat := stats.NewCDF(events)
	for i := 0; i < events; i++ {
		var added time.Duration
		if cpu.Added.N() > 0 {
			added = time.Duration(cpu.Added.Percentile(rng.Float64()) * float64(time.Second))
		}
		wire := sc.Prop + serialize
		lost := rng.Float64() < sc.LossPct
		if d, ok := probes[eventT[i]]; ok {
			if d.Dropped { // tail drop in the link buffer: recover like a loss
				lost = true
			} else {
				wire = d.Queued + sc.Prop
			}
		}
		if lost {
			wire += recovery + time.Duration(rng.Range(0, float64(serialize)))
		}
		l := yardService + added + wire + decodeCost
		lat.Add(l.Seconds())
		sess.ObserveAt(eventT[i]+l, l)
	}

	win := tracker.FleetWindows()
	mid := win[slo.WinMid]
	return Point{
		Users:     n,
		P50Ms:     1e3 * lat.Percentile(0.50),
		P95Ms:     1e3 * lat.Percentile(0.95),
		P99Ms:     1e3 * lat.Percentile(0.99),
		BreachPct: mid.BreachPct,
		Burn:      mid.Burn,
		State:     tracker.State().String(),
		Events:    events,
	}
}

// FormatCurve renders a curve as the `slimbench capacity` progress table.
func FormatCurve(w io.Writer, c Curve) error {
	if _, err := fmt.Fprintf(w, "%s: link %.0f Mbps, %d CPUs, loss %.1f%%\n",
		c.Scenario.Name, c.Scenario.LinkBps/1e6, c.Scenario.CPUs, 100*c.Scenario.LossPct); err != nil {
		return err
	}
	fmt.Fprintf(w, "%6s %9s %9s %9s %9s %7s  %s\n",
		"USERS", "P50", "P95", "P99", "BREACH%", "BURN", "STATE")
	for _, p := range c.Points {
		fmt.Fprintf(w, "%6d %8.1fms %8.1fms %8.1fms %8.2f%% %7.2f  %s\n",
			p.Users, p.P50Ms, p.P95Ms, p.P99Ms, p.BreachPct, p.Burn, p.State)
	}
	if c.Saturated {
		_, err := fmt.Fprintf(w, "capacity: %d users (burn crossed %.1f at %d)\n",
			c.CapacityUsers, c.Scenario.BurnThreshold, c.Points[len(c.Points)-1].Users)
		return err
	}
	_, err := fmt.Fprintf(w, "capacity: >= %d users (ramp exhausted before the knee)\n", c.CapacityUsers)
	return err
}
