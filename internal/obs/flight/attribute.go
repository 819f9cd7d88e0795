package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Stage classifies the pipeline stage that dominated a breach's latency —
// the answer to "why was this frame late". The taxonomy follows the
// display path the flight recorder already records: encode on the server,
// the wait before the transport, the wire (including loss detection and
// retransmit),
// console decode, and the final paint/apply.
type Stage uint8

const (
	// StageUnattributed means the causal chain could not be walked: the
	// breach's input event (or its encoded commands) had already been
	// overwritten in the ring, so no stage can honestly be blamed.
	StageUnattributed Stage = iota
	// StageEncode: the server spent the time lowering ops into commands.
	StageEncode
	// StageQueue: the commands waited between ENCODE and TX — the send
	// path stalled before the transport. (The flow governor holds no
	// commands: a paint its tokens cannot take is owed, EvOwe.)
	StageQueue
	// StageWire: the time went to the interconnect — serialization,
	// queueing in the link, or loss followed by NACK-driven retransmit.
	StageWire
	// StageDecode: the console's decode path was the bottleneck.
	StageDecode
	// StagePaint: decode finished promptly but the frame-buffer apply
	// lagged.
	StagePaint
	// StageHost: the time went to the host runtime, not the pipeline — the
	// breach's critical chain overlapped a recorded GC pause or
	// CPU-starvation window (see HostWindow) that explains the stall better
	// than any pipeline stage does. Without this verdict a stop-the-world
	// pause shows up as an inflated QUEUE or DECODE and an innocent stage
	// takes the blame.
	StageHost

	// NumStages sizes per-stage accounting arrays.
	NumStages = int(StageHost) + 1
)

var stageNames = [NumStages]string{
	StageUnattributed: "UNATTRIBUTED",
	StageEncode:       "ENCODE",
	StageQueue:        "QUEUE",
	StageWire:         "WIRE",
	StageDecode:       "DECODE",
	StagePaint:        "PAINT",
	StageHost:         "HOST",
}

// String names the stage.
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// ParseStage converts a stage name back to a Stage.
func ParseStage(name string) (Stage, error) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), nil
		}
	}
	return StageUnattributed, fmt.Errorf("flight: unknown stage %q", name)
}

// MarshalJSON serializes the stage by name so dumps stay greppable.
func (s Stage) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a stage name.
func (s *Stage) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	st, err := ParseStage(name)
	if err != nil {
		return err
	}
	*s = st
	return nil
}

// HostWindow is one interval during which the host runtime was unable to
// run goroutines promptly: a garbage-collection pause or a CPU-starvation
// episode, as detected by the hostmon sampler. Timestamps are on the same
// obs.Clock as the flight ring's events, so attribution can overlap them
// directly against a breach's causal chain.
type HostWindow struct {
	// Start and End bound the window in ring time. An in-progress window
	// ends at the detector's last sample.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Kind is "gc" for a garbage-collection pause window, "cpu" for a
	// CPU-starvation (scheduler latency) window.
	Kind string `json:"kind"`
	// WorstNs is the worst single pause or scheduling latency observed
	// inside the window, in nanoseconds.
	WorstNs int64 `json:"worst_ns,omitempty"`
}

// overlap is the length of the intersection of [w.Start, w.End] with
// [from, to], zero when disjoint.
func (w HostWindow) overlap(from, to time.Duration) time.Duration {
	lo, hi := w.Start, w.End
	if from > lo {
		lo = from
	}
	if to < hi {
		hi = to
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Verdict is one breach's automated attribution: the dominant stage plus
// the per-stage time split along the critical command's path. A verdict is
// computed by walking the causal chain (INPUT → ENCODE → TX → RX →
// DECODE → PAINT, with DROP/NACK as loss evidence and OWE marking a paint
// deferred to repayment) for the input-chain ID that breached.
type Verdict struct {
	// Chain is the input-chain ID that was walked.
	Chain uint64 `json:"chain"`
	// Stage is the dominant latency stage.
	Stage Stage `json:"stage"`
	// EncodeNs..PaintNs split the critical command's latency by stage.
	EncodeNs int64 `json:"encode_ns,omitempty"`
	QueueNs  int64 `json:"queue_ns,omitempty"`
	WireNs   int64 `json:"wire_ns,omitempty"`
	DecodeNs int64 `json:"decode_ns,omitempty"`
	PaintNs  int64 `json:"paint_ns,omitempty"`
	// Loss reports wire-loss evidence on the critical path: a DROP, a NACK
	// covering the sequence, or more than one TX (a retransmit).
	Loss bool `json:"loss,omitempty"`
	// Link is the WIRE sub-verdict — LinkLoss or LinkLatency — set when
	// the dominant stage is WIRE and path evidence (or chain loss
	// evidence) lets the breach distinguish a lossy path from a slow one.
	Link string `json:"link,omitempty"`
	// HostNs is the total overlap between the chain's lifetime and the
	// recorded host windows; HostKind names the overlapping evidence ("gc",
	// "cpu", or "gc+cpu"). Both are recorded whenever any overlap exists,
	// even when a pipeline stage still dominates.
	HostNs   int64  `json:"host_ns,omitempty"`
	HostKind string `json:"host_kind,omitempty"`
	// Seqs is how many display commands the chain encoded; Painted is how
	// many of them the console had painted by the time of the walk.
	Seqs    int `json:"seqs,omitempty"`
	Painted int `json:"painted,omitempty"`
}

// StageDuration returns the verdict's time in one stage.
func (v *Verdict) StageDuration(s Stage) time.Duration {
	switch s {
	case StageEncode:
		return time.Duration(v.EncodeNs)
	case StageQueue:
		return time.Duration(v.QueueNs)
	case StageWire:
		return time.Duration(v.WireNs)
	case StageDecode:
		return time.Duration(v.DecodeNs)
	case StagePaint:
		return time.Duration(v.PaintNs)
	case StageHost:
		return time.Duration(v.HostNs)
	}
	return 0
}

// seqPath accumulates one display command's per-stage timestamps while
// Attribute scans the ring.
type seqPath struct {
	encT            time.Duration
	txT             time.Duration // first TX
	txN             int
	rxT             time.Duration
	haveRx          bool
	decT            time.Duration
	haveDec         bool
	paintT          time.Duration
	painted         bool
	dropped, nacked bool
}

// Attribute walks a session's recorded events and classifies the dominant
// latency stage for the given input chain, as of time asOf (the breach
// detection time, on the ring's clock). The walk is defensive about ring
// truncation: if the chain's INPUT event — or every command it encoded —
// has already been overwritten, the verdict is UNATTRIBUTED rather than a
// guess from partial evidence.
//
// hostWins, when not nil, are the GC-pause and CPU-starvation windows
// recorded around the breach (same clock). When the chain's lifetime
// overlaps them for at least as long as the dominant pipeline stage ran,
// the verdict is HOST — the stall is explained by the host runtime, and
// whatever stage the time landed in was a victim, not a cause. Smaller
// overlaps are kept as evidence (HostNs, HostKind) without changing the
// blame.
func Attribute(evs []Event, chain uint64, asOf time.Duration, hostWins []HostWindow) Verdict {
	v := Verdict{Chain: chain, Stage: StageUnattributed}
	if chain == 0 {
		return v
	}
	var inputT time.Duration
	haveInput := false
	for _, ev := range evs {
		if ev.Kind == EvInput && ev.Cause == chain {
			inputT, haveInput = ev.T, true
			break
		}
	}
	if !haveInput {
		return v // head of the chain already overwritten
	}
	// The chain's display commands are the ENCODE events carrying its ID;
	// everything downstream (TX/RX/DECODE/PAINT, retransmits, drops) joins
	// by sequence number regardless of which chain was current when it was
	// recorded — a retransmit fires under a *later* input's chain ID.
	paths := make(map[uint32]*seqPath)
	for _, ev := range evs {
		if ev.Kind == EvEncode && ev.Cause == chain {
			if _, ok := paths[ev.Seq]; !ok {
				paths[ev.Seq] = &seqPath{encT: ev.T}
			}
		}
	}
	if len(paths) == 0 {
		return v // commands truncated out of the ring (or no display response)
	}
	for _, ev := range evs {
		if ev.Kind == EvNack {
			from, to := uint32(ev.A), uint32(ev.B)
			for seq, p := range paths {
				if seq >= from && seq <= to {
					p.nacked = true
				}
			}
			continue
		}
		p, ok := paths[ev.Seq]
		if !ok {
			continue
		}
		switch ev.Kind {
		case EvTx:
			if p.txN == 0 || ev.T < p.txT {
				p.txT = ev.T
			}
			p.txN++
		case EvRx:
			if !p.haveRx {
				p.rxT, p.haveRx = ev.T, true
			}
		case EvDecode:
			if !p.haveDec {
				p.decT, p.haveDec = ev.T, true
			}
		case EvPaint:
			if !p.painted || ev.T > p.paintT {
				p.paintT = ev.T
			}
			p.painted = true
		case EvDrop:
			p.dropped = true
		}
	}
	// The critical command is the one that finished last — or, if some
	// never painted, the unfinished one that has been open the longest.
	type scored struct {
		seq  uint32
		p    *seqPath
		done time.Duration
	}
	var all []scored
	for seq, p := range paths {
		done := asOf
		if p.painted {
			done = p.paintT
		}
		all = append(all, scored{seq, p, done})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].done != all[j].done {
			return all[i].done > all[j].done
		}
		return all[i].seq > all[j].seq
	})
	crit := all[0]
	p := crit.p

	clamp := func(d time.Duration) int64 {
		if d < 0 {
			return 0
		}
		return int64(d)
	}
	v.EncodeNs = clamp(p.encT - inputT)
	switch {
	case p.txN > 0:
		v.QueueNs = clamp(p.txT - p.encT)
		if p.haveRx {
			v.WireNs = clamp(p.rxT - p.txT)
		} else {
			// Sent but never received: the wire still owes us the command.
			v.WireNs = clamp(asOf - p.txT)
		}
	default:
		// Encoded but never transmitted: held server side.
		v.QueueNs = clamp(asOf - p.encT)
	}
	if p.haveRx {
		base := p.rxT
		if p.haveDec {
			v.DecodeNs = clamp(p.decT - p.rxT)
			base = p.decT
		}
		if p.painted {
			v.PaintNs = clamp(p.paintT - base)
		} else if p.haveDec {
			v.PaintNs = clamp(asOf - base)
		} else {
			v.DecodeNs = clamp(asOf - base)
		}
	}
	v.Loss = p.dropped || p.nacked || p.txN > 1
	v.Seqs = len(paths)
	for _, s := range all {
		if s.p.painted {
			v.Painted++
		}
	}
	v.Stage = StageEncode
	for _, st := range []Stage{StageQueue, StageWire, StageDecode, StagePaint} {
		if v.StageDuration(st) > v.StageDuration(v.Stage) {
			v.Stage = st
		}
	}
	// Host evidence: overlap every recorded GC/CPU window against the
	// chain's lifetime [input, done]. The windows come from a sampler, so
	// adjacent windows of the same kind never overlap each other; summing
	// per kind and taking the larger kind as the host total avoids double
	// counting an interval flagged as both gc and cpu.
	var gcNs, cpuNs int64
	for _, w := range hostWins {
		o := int64(w.overlap(inputT, crit.done))
		switch w.Kind {
		case "gc":
			gcNs += o
		default:
			cpuNs += o
		}
	}
	if gcNs > 0 || cpuNs > 0 {
		v.HostNs = max(gcNs, cpuNs)
		switch {
		case gcNs > 0 && cpuNs > 0:
			v.HostKind = "gc+cpu"
		case gcNs > 0:
			v.HostKind = "gc"
		default:
			v.HostKind = "cpu"
		}
		if v.HostNs >= int64(v.StageDuration(v.Stage)) {
			v.Stage = StageHost
		}
	}
	return v
}

// BlameTable aggregates breach verdicts into the per-stage blame histogram
// reported by `slimtrace explain` (and asserted by the SLO e2e — both go
// through this code path; Blame adds whole dumps to it).
type BlameTable struct {
	// Total counts breaches added; Unattributed counts the subset whose
	// chain could not be walked.
	Total, Unattributed int
	// Counts, LatencyNs, and StageNs accumulate per dominant stage: how
	// many breaches it owned, their summed end-to-end latency, and the
	// summed time inside the blamed stage itself.
	Counts    [NumStages]int
	LatencyNs [NumStages]int64
	StageNs   [NumStages]int64
	// Loss counts breaches with wire-loss evidence on the critical path.
	Loss int
}

// AddVerdict accumulates one verdict with its breach latency.
func (t *BlameTable) AddVerdict(v Verdict, latencyNs int64) {
	t.Total++
	if v.Stage == StageUnattributed {
		t.Unattributed++
	}
	t.Counts[v.Stage]++
	t.LatencyNs[v.Stage] += latencyNs
	t.StageNs[v.Stage] += int64(v.StageDuration(v.Stage))
	if v.Loss {
		t.Loss++
	}
}

// Share is the fraction of breaches blamed on a stage (0 when empty).
func (t *BlameTable) Share(s Stage) float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.Counts[s]) / float64(t.Total)
}

// Format renders the blame table, stages ordered by blame count.
func (t *BlameTable) Format(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d breaches (%d with loss evidence, %d unattributed)\n",
		t.Total, t.Loss, t.Unattributed); err != nil {
		return err
	}
	if t.Total == 0 {
		return nil
	}
	order := make([]Stage, 0, NumStages)
	for i := 0; i < NumStages; i++ {
		order = append(order, Stage(i))
	}
	sort.SliceStable(order, func(i, j int) bool { return t.Counts[order[i]] > t.Counts[order[j]] })
	fmt.Fprintf(w, "%-13s %9s %7s %12s %12s\n", "STAGE", "BREACHES", "SHARE", "AVG-LATENCY", "AVG-STAGE")
	for _, st := range order {
		n := t.Counts[st]
		if n == 0 {
			continue
		}
		avgLat := time.Duration(t.LatencyNs[st] / int64(n)).Round(time.Millisecond)
		avgStage := time.Duration(t.StageNs[st] / int64(n)).Round(time.Millisecond)
		if _, err := fmt.Fprintf(w, "%-13s %9d %6.1f%% %12s %12s\n",
			st, n, 100*t.Share(st), avgLat, avgStage); err != nil {
			return err
		}
	}
	return nil
}
