package flight

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"slim/internal/obs"
)

// Dump is one breach snapshot: the events a session recorded in the
// window leading up to an input-to-paint latency breach, plus enough
// context to analyze the file on its own. Dumps serialize as JSON; read
// them back with ReadDump, convert them to §3.1 offline traces with
// trace.FromFlight, or print and export them with slimtrace explain.
type Dump struct {
	// Session is the breaching session's ID.
	Session uint32 `json:"session"`
	// Domain is the recorder's clock domain (event timestamps follow it).
	Domain obs.Domain `json:"domain"`
	// LatencyNs is the input-to-paint latency that tripped the dump.
	LatencyNs int64 `json:"latency_ns"`
	// ThresholdNs is the SLO target the latency breached.
	ThresholdNs int64 `json:"threshold_ns"`
	// WindowNs is how far back Events reaches.
	WindowNs int64 `json:"window_ns"`
	// CapturedAt is the wall-clock capture time.
	CapturedAt time.Time `json:"captured_at"`
	// Verdict is the automated attribution for this breach: the dominant
	// latency stage along the breaching chain's critical command (see
	// Attribute). Nil in dumps from recorders that predate attribution.
	Verdict *Verdict `json:"verdict,omitempty"`
	// HostWindows are the host-runtime stall windows (GC pauses, CPU
	// starvation) known at capture time — the evidence behind a HOST
	// verdict, kept so Reattribute (`slimtrace explain -reattribute`) can
	// re-run host attribution offline. Empty when no host monitor was wired.
	HostWindows []HostWindow `json:"host_windows,omitempty"`
	// PathEvidence is the session's measured network-path state (SRTT,
	// jitter, loss, goodput) at detection time — the evidence behind a
	// WIRE verdict's LINK sub-verdict. Nil when no path estimator was
	// wired.
	PathEvidence *PathEvidence `json:"path_evidence,omitempty"`
	// Events is the causal event log, oldest first.
	Events []Event `json:"events"`
}

// Write serializes the dump as indented JSON.
func (d *Dump) Write(w io.Writer) error { return obs.WriteJSON(w, d) }

// dumpNameFormat names a dump file after its session and the recorder's
// breach count, and is how ListDumps recognises one: the only place the
// name is spelled.
const dumpNameFormat = "flight-sess%d-%d.json"

// MaxDumps bounds a dump directory: after writing a dump the recorder
// removes all but the newest MaxDumps, so a long-running daemon's
// evidence stays a bounded, recent window.
const MaxDumps = 64

// ListDumps returns the paths of the breach dumps in dir, oldest first:
// by modification time, then by breach count, which orders dumps one
// recorder wrote within a single timestamp tick.
func ListDumps(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type dumpFile struct {
		path string
		mod  time.Time
		n    int64
	}
	var dumps []dumpFile
	for _, ent := range ents {
		var id uint32
		var n int64
		fmt.Sscanf(ent.Name(), dumpNameFormat, &id, &n)
		if ent.IsDir() || ent.Name() != fmt.Sprintf(dumpNameFormat, id, n) {
			continue
		}
		if fi, err := ent.Info(); err == nil {
			dumps = append(dumps, dumpFile{filepath.Join(dir, ent.Name()), fi.ModTime(), n})
		}
	}
	slices.SortFunc(dumps, func(a, b dumpFile) int {
		return cmp.Or(a.mod.Compare(b.mod), cmp.Compare(a.n, b.n))
	})
	paths := make([]string, len(dumps))
	for i, d := range dumps {
		paths[i] = d.path
	}
	return paths, nil
}

// ReadDump deserializes one breach dump.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("flight: decode dump: %w", err)
	}
	return &d, nil
}

// Breach describes one recorded breach: the attribution verdict for the
// breaching chain, and the dump file it was snapshotted to ("" when no
// dump was written — dumps are rate limited and need a configured
// directory; the verdict is computed regardless).
type Breach struct {
	Path    string
	Verdict Verdict
}

// RecordBreach records one input event whose input-to-paint latency
// breached target; the caller decides that (telemetry.Session.ObservePaint
// asks the SLO), so every observer counts the same breaches. The breach is
// counted, marked in the ring (EvBreach), attributed to its dominant
// latency stage, published through the breach instruments, and — when a
// dump directory is configured and the session's rate limit allows —
// written as a dump file stamped with target. Detection time is the
// recorder's clock. A disabled recorder or unknown session records
// nothing and reports false.
func (r *Recorder) RecordBreach(id uint32, latency, target time.Duration) (Breach, bool) {
	if !r.enabled.Load() {
		return Breach{}, false
	}
	l := r.sessions.Lookup(id)
	if l == nil {
		return Breach{}, false
	}
	r.mu.RLock()
	dir := r.dumpDir
	hostFn := r.hostFn
	pathFn := r.pathFn
	r.mu.RUnlock()
	now := r.clock.Now()
	chain := l.chain()
	n := r.breachN.Add(1)
	r.breaches.Inc()
	if r.clock.Domain() == obs.DomainWall {
		r.lastBreach.Set(time.Now().UnixMilli())
	} else {
		r.lastBreach.Set(now.Nanoseconds())
	}
	l.record(Event{Kind: EvBreach, A: int64(latency), B: int64(target)})
	evs := l.Events(DefaultWindow)
	var hostWins []HostWindow
	if hostFn != nil {
		hostWins = hostFn(now)
	}
	var pathEv *PathEvidence
	if pathFn != nil {
		pathEv = pathFn(id, now)
	}
	br := Breach{Verdict: Attribute(evs, chain, now, hostWins)}
	if br.Verdict.Stage == StageWire {
		br.Verdict.Link = classifyLink(&br.Verdict, pathEv)
	}
	if dir == "" {
		return br, true
	}
	// Per-session dump rate limit: the first breach of a storm is the
	// interesting one; the rest would dump near-identical rings.
	last := l.lastDumpNs.Load()
	gap := r.dumpGapNs.Load()
	if last != 0 && now.Nanoseconds()-last < gap {
		return br, true
	}
	if !l.lastDumpNs.CompareAndSwap(last, now.Nanoseconds()) {
		return br, true // another breach is already dumping
	}
	verdict := br.Verdict
	d := &Dump{
		Session:      id,
		Domain:       r.clock.Domain(),
		LatencyNs:    int64(latency),
		ThresholdNs:  int64(target),
		WindowNs:     int64(DefaultWindow),
		CapturedAt:   time.Now(),
		Verdict:      &verdict,
		HostWindows:  hostWins,
		PathEvidence: pathEv,
		Events:       evs,
	}
	path := filepath.Join(dir, fmt.Sprintf(dumpNameFormat, id, n))
	if err := obs.WriteFile(path, d.Write); err != nil {
		r.dumpErrors.Inc()
		return br, true
	}
	br.Path = path
	if dumps, err := ListDumps(dir); err == nil {
		obs.KeepNewest(dumps, MaxDumps)
	}
	return br, true
}
