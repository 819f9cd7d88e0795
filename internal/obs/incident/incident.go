// Package incident closes the observability loop: instead of hoping an
// operator is watching /debug/slo when the SLO engine degrades, an
// Engine subscribes to fleet state transitions and snapshots everything
// a post-mortem needs the moment the transition happens — a short CPU
// profile taken as the bundle is written, heap and goroutine dumps, the
// flight recorder's breach dumps, the wire-capture tail, the /debug/slo
// document, and the hostmon sample ring — into a versioned, rate-limited
// bundle directory under `slimd -incident-dir`.
//
// Bundles are written to a hidden staging directory and renamed into
// place, so a bundle that exists is complete: its manifest.json lists
// every file (with sizes) plus a collector-error map for anything that
// could not be gathered. /debug/incident lists and triggers bundles
// over HTTP; `slimtrace explain` summarizes them offline.
package incident

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/slo"
)

// BundleVersion is the manifest schema version.
const BundleVersion = 1

// Where a bundle keeps the evidence it copies in the formats of other
// packages: breach dumps (internal/obs/flight) and the wire-capture tail
// (internal/obs/capture).
const (
	flightSubdir    = "flight"
	captureTailName = "capture-tail.slimcap"
	// flightTail is how many breach dumps, the newest, a bundle copies.
	flightTail = 8
)

// Config parameterizes an engine. Dir is required; zero fields take
// defaults.
type Config struct {
	// Dir is the bundle root directory (created on first bundle).
	Dir string
	// MinGap rate-limits bundle creation (default 60 s): triggers inside
	// the gap are counted as dropped, not written — the first bundle of
	// a storm is the interesting one.
	MinGap time.Duration
	// MaxBundles bounds the bundle directory (default 16); the oldest
	// bundles are removed past it.
	MaxBundles int
	// CaptureTail bounds the wire-capture tail copied into a bundle
	// (default 512 records).
	CaptureTail int
	// CPUProfile is the length of the CPU profile each bundle captures
	// (default 250 ms).
	CPUProfile time.Duration
}

func (c Config) withDefaults() Config {
	if c.MinGap <= 0 {
		c.MinGap = time.Minute
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = 16
	}
	if c.CaptureTail <= 0 {
		c.CaptureTail = 512
	}
	if c.CPUProfile <= 0 {
		c.CPUProfile = 250 * time.Millisecond
	}
	return c
}

// Sources are the subsystems an engine snapshots. Every field is
// optional: a nil source simply leaves its artifact out of the bundle
// (noted in the manifest's error map when one would be expected).
type Sources struct {
	// SLO supplies the transition feed (Start subscribes) and slo.json.
	SLO *slo.Tracker
	// Monitor supplies hostmon.json (ring + stall windows).
	Monitor *hostmon.Monitor
	// Registry supplies metrics.prom.
	Registry *obs.Registry
	// FlightDir is the flight recorder's dump directory; the newest
	// flightTail dumps are copied into the bundle's flight/ directory.
	FlightDir string
	// CaptureFile is the live .slimcap spool; its trailing CaptureTail
	// records become capture-tail.slimcap.
	CaptureFile string
}

// Manifest is a bundle's manifest.json.
type Manifest struct {
	Version int `json:"version"`
	// Name is the bundle directory's base name.
	Name string `json:"name"`
	// Reason is the trigger description ("slo:OK->DEGRADED", "manual",
	// an operator note, ...); Trigger is "slo" or "manual".
	Reason  string `json:"reason"`
	Trigger string `json:"trigger"`
	// CreatedAt is the bundle wall-clock creation time.
	CreatedAt time.Time `json:"created_at"`
	// Files maps bundle-relative file names to their sizes in bytes.
	Files map[string]int64 `json:"files"`
	// Errors maps collector names to what went wrong — a bundle is
	// complete-as-possible, never all-or-nothing.
	Errors map[string]string `json:"errors,omitempty"`
}

// Engine watches SLO transitions and writes bundles. Create with New,
// wire with Instrument, Start to subscribe, Close to stop.
type Engine struct {
	cfg     Config
	src     Sources
	enabled atomic.Bool
	lastNs  atomic.Int64 // wall ns of the last written bundle
	seq     atomic.Int64

	trigC chan string
	stop  chan struct{}
	done  chan struct{}
	unsub func()

	wmu sync.Mutex // serializes bundle writes

	bundlesC *obs.Counter
	droppedC *obs.Counter
	errorsC  *obs.Counter
	lastG    *obs.Gauge
}

// New returns a stopped engine. Zero config fields take defaults.
func New(cfg Config, src Sources) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), src: src}
	e.enabled.Store(true)
	return e
}

// Instrument resolves the engine's series in reg:
// slim_incident_bundles_total, slim_incident_dropped_total,
// slim_incident_errors_total, and slim_incident_last_unix_ms.
func (e *Engine) Instrument(reg *obs.Registry) *Engine {
	e.bundlesC = reg.Counter("slim_incident_bundles_total")
	e.droppedC = reg.Counter("slim_incident_dropped_total")
	e.errorsC = reg.Counter("slim_incident_errors_total")
	e.lastG = reg.Gauge("slim_incident_last_unix_ms")
	return e
}

// SetEnabled pauses or resumes triggering (manual and SLO-driven).
func (e *Engine) SetEnabled(on bool) { e.enabled.Store(on) }

// Dir reports the bundle root.
func (e *Engine) Dir() string { return e.cfg.Dir }

// Start launches the bundle worker and subscribes to the SLO tracker's
// state transitions: any transition into DEGRADED or BREACHING from a
// healthier state enqueues a bundle. Starting a started engine panics.
func (e *Engine) Start() {
	if e.stop != nil {
		panic("incident: Start on a running engine")
	}
	e.trigC = make(chan string, 4)
	e.stop = make(chan struct{})
	e.done = make(chan struct{})
	go e.worker(e.trigC, e.stop, e.done)
	if e.src.SLO != nil {
		e.unsub = e.src.SLO.Subscribe(func(from, to slo.State) {
			if to <= from || to < slo.StateDegraded {
				return // recovery or sideways move: nothing to capture
			}
			select {
			case e.trigC <- "slo:" + from.String() + "->" + to.String():
			default:
				e.droppedC.Inc()
			}
		})
	}
}

// Close unsubscribes from the SLO feed, stops the worker (finishing any
// in-flight bundle), and waits for it. Closing a stopped engine is a
// no-op.
func (e *Engine) Close() {
	if e.stop == nil {
		return
	}
	if e.unsub != nil {
		e.unsub()
		e.unsub = nil
	}
	close(e.stop)
	<-e.done
	e.stop, e.done, e.trigC = nil, nil, nil
}

func (e *Engine) worker(trig <-chan string, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case reason := <-trig:
			_, _ = e.Trigger(reason, "slo")
		}
	}
}

// ErrRateLimited reports a trigger suppressed by the MinGap rate limit.
var ErrRateLimited = fmt.Errorf("incident: rate limited")

// ErrDisabled reports a trigger on a disabled engine.
var ErrDisabled = fmt.Errorf("incident: disabled")

// Trigger writes one bundle synchronously (trigger is "manual" for
// operator-initiated bundles, "slo" for transition-driven ones) and
// returns its manifest. Rate-limited and disabled triggers return
// ErrRateLimited / ErrDisabled without touching disk.
func (e *Engine) Trigger(reason, trigger string) (*Manifest, error) {
	if !e.enabled.Load() || e.cfg.Dir == "" {
		e.droppedC.Inc()
		return nil, ErrDisabled
	}
	now := time.Now()
	last := e.lastNs.Load()
	if last != 0 && now.UnixNano()-last < int64(e.cfg.MinGap) {
		e.droppedC.Inc()
		return nil, ErrRateLimited
	}
	if !e.lastNs.CompareAndSwap(last, now.UnixNano()) {
		e.droppedC.Inc()
		return nil, ErrRateLimited // lost the race to a concurrent trigger
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	m, err := e.writeBundle(reason, trigger, now)
	if err != nil {
		e.errorsC.Inc()
		return nil, err
	}
	e.bundlesC.Inc()
	e.lastG.Set(now.UnixMilli())
	e.rotate()
	return m, nil
}

// sanitizeReason makes a reason safe for a directory name.
func sanitizeReason(r string) string {
	safe := strings.Map(func(c rune) rune {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			return c
		}
		return '_'
	}, r)
	if safe == "" {
		return "trigger"
	}
	return safe[:min(len(safe), 40)]
}

// writeBundle collects every artifact into a staging directory and
// renames it into place. Individual collector failures land in the
// manifest's error map; only filesystem-level failures abort the bundle.
func (e *Engine) writeBundle(reason, trigger string, now time.Time) (*Manifest, error) {
	name := fmt.Sprintf("incident-%s-%s", now.UTC().Format("20060102T150405.000Z0700"), sanitizeReason(reason))
	if err := os.MkdirAll(e.cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	stage, err := os.MkdirTemp(e.cfg.Dir, ".stage-")
	if err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	defer os.RemoveAll(stage) // no-op after successful rename

	m := &Manifest{
		Version:   BundleVersion,
		Name:      name,
		Reason:    reason,
		Trigger:   trigger,
		CreatedAt: now,
		Files:     map[string]int64{},
		Errors:    map[string]string{},
	}

	writeFile := func(rel string, fill func(io.Writer) error) { writeStaged(stage, m, rel, fill) }

	writeFile("cpu.pprof", e.cpuProfile)
	writeFile("heap.pprof", func(w io.Writer) error {
		return pprof.Lookup("heap").WriteTo(w, 0)
	})
	writeFile("goroutines.txt", func(w io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(w, 1)
	})

	if e.src.SLO != nil {
		writeFile("slo.json", func(w io.Writer) error { return obs.WriteJSON(w, e.src.SLO.Status()) })
	} else {
		m.Errors["slo.json"] = "no slo tracker wired"
	}
	if e.src.Monitor != nil {
		e.src.Monitor.SampleNow() // a fresh tick so the ring ends at the incident
		writeFile("hostmon.json", func(w io.Writer) error {
			return obs.WriteJSON(w, e.src.Monitor.Status())
		})
	} else {
		m.Errors["hostmon.json"] = "no host monitor wired"
	}
	if e.src.Registry != nil {
		writeFile("metrics.prom", func(w io.Writer) error {
			e.src.Registry.WritePrometheus(w)
			return nil
		})
	}
	e.copyFlightDumps(stage, m)
	e.captureTail(stage, m)

	writeFile("manifest.json", func(w io.Writer) error { return obs.WriteJSON(w, m) })

	final := filepath.Join(e.cfg.Dir, name)
	if err := os.Rename(stage, final); err != nil {
		return nil, fmt.Errorf("incident: publish bundle: %w", err)
	}
	return m, nil
}

// writeStaged fills one bundle file under the staging directory, creating
// its subdirectory on demand. Success records the file's size in the
// manifest; any failure records the error there instead and leaves no
// partial file behind.
func writeStaged(stage string, m *Manifest, rel string, fill func(io.Writer) error) {
	path := filepath.Join(stage, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		m.Errors[rel] = err.Error()
		return
	}
	if err := obs.WriteFile(path, fill); err != nil {
		m.Errors[rel] = err.Error()
		os.Remove(path)
		return
	}
	if fi, err := os.Stat(path); err == nil {
		m.Files[rel] = fi.Size()
	}
}

// cpuProfile profiles the process for CPUProfile into w. It fails, and the
// bundle notes why, while another CPU profile (/debug/pprof/profile) runs.
func (e *Engine) cpuProfile(w io.Writer) error {
	if err := pprof.StartCPUProfile(w); err != nil {
		return err
	}
	time.Sleep(e.cfg.CPUProfile)
	pprof.StopCPUProfile()
	return nil
}

// copyFlightDumps copies the newest flightTail breach dumps into the
// bundle's flight/ directory.
func (e *Engine) copyFlightDumps(stage string, m *Manifest) {
	if e.src.FlightDir == "" {
		return
	}
	dumps, err := flight.ListDumps(e.src.FlightDir)
	if err != nil {
		m.Errors["flight"] = err.Error()
		return
	}
	for _, path := range dumps[max(0, len(dumps)-flightTail):] {
		rel := filepath.Join(flightSubdir, filepath.Base(path))
		data, err := os.ReadFile(path)
		if err != nil {
			m.Errors[rel] = err.Error()
			continue
		}
		writeStaged(stage, m, rel, func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		})
	}
}

// captureTail writes the live capture spool's trailing records as a
// fresh, valid .slimcap file. The spool is streamed through a ring of
// CaptureTail records, so a bundle costs the tail's memory however long
// the daemon has been capturing.
func (e *Engine) captureTail(stage string, m *Manifest) {
	if e.src.CaptureFile == "" {
		return
	}
	const rel = captureTailName
	f, err := os.Open(e.src.CaptureFile)
	if err != nil {
		m.Errors[rel] = err.Error()
		return
	}
	defer f.Close()
	r := bufio.NewReader(f)
	hdr, err := capture.ReadHeader(r)
	if err != nil {
		m.Errors[rel] = err.Error()
		return
	}
	ring := make([]capture.Record, e.cfg.CaptureTail)
	n := 0
	for ; ; n++ {
		rec, rerr := capture.ReadRecord(r)
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if n == 0 {
				m.Errors[rel] = rerr.Error()
				return
			}
			// The spool's last record was mid-write; keep what parsed.
			m.Errors[rel+".note"] = "truncated tail: " + rerr.Error()
			break
		}
		ring[n%len(ring)] = rec
	}
	writeStaged(stage, m, rel, func(w io.Writer) error {
		if err := capture.WriteHeader(w, hdr.Domain, hdr.Epoch); err != nil {
			return err
		}
		var buf []byte
		for i := max(0, n-len(ring)); i < n; i++ {
			buf = capture.AppendRecord(buf[:0], ring[i%len(ring)])
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// rotate removes the oldest bundles past MaxBundles.
func (e *Engine) rotate() {
	if dirs, err := bundleDirs(e.cfg.Dir); err == nil {
		obs.KeepNewest(dirs, e.cfg.MaxBundles)
	}
}

// bundleDirs lists the bundle directories under dir, oldest first: bundle
// names embed their UTC creation time, and ReadDir sorts by name.
func bundleDirs(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	var dirs []string
	for _, ent := range ents {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "incident-") {
			dirs = append(dirs, filepath.Join(dir, ent.Name()))
		}
	}
	return dirs, err
}

// ReadManifest loads one bundle's manifest.json.
func ReadManifest(bundleDir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(bundleDir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("incident: parse manifest: %w", err)
	}
	return &m, nil
}

// List returns the manifests of every bundle under dir, oldest first.
// Bundles whose manifest cannot be read are skipped.
func List(dir string) ([]*Manifest, error) {
	dirs, err := bundleDirs(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	out := make([]*Manifest, 0, len(dirs))
	for _, d := range dirs {
		if m, err := ReadManifest(d); err == nil {
			out = append(out, m)
		}
	}
	return out, nil
}

// WriteList prints one row per bundle: what a bundle directory holds.
func WriteList(w io.Writer, bundles []*Manifest) {
	fmt.Fprintf(w, "%-44s %-20s %-8s %-6s %s\n", "BUNDLE", "CREATED", "TRIGGER", "FILES", "REASON")
	for _, m := range bundles {
		fmt.Fprintf(w, "%-44s %-20s %-8s %-6d %s\n", m.Name,
			m.CreatedAt.UTC().Format("2006-01-02T15:04:05Z"), m.Trigger, len(m.Files), m.Reason)
	}
}

// WriteSummary prints one bundle: its manifest (trigger, files, collector
// errors), the host state at capture from hostmon.json, and how to read
// its CPU profile. The flight dumps and capture tail a bundle also holds
// are evidence files in their own formats.
func WriteSummary(w io.Writer, bundleDir string) error {
	m, err := ReadManifest(bundleDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "bundle %s (v%d)\n", m.Name, m.Version)
	fmt.Fprintf(w, "  trigger: %s (%s), created %s\n", m.Reason, m.Trigger,
		m.CreatedAt.UTC().Format(time.RFC3339))
	fmt.Fprintf(w, "  files (%d):\n", len(m.Files))
	for _, n := range obs.SortedKeys(m.Files) {
		fmt.Fprintf(w, "    %-28s %10d bytes\n", n, m.Files[n])
	}
	if len(m.Errors) > 0 {
		fmt.Fprintf(w, "  collector errors (%d):\n", len(m.Errors))
		for _, n := range obs.SortedKeys(m.Errors) {
			fmt.Fprintf(w, "    %-28s %s\n", n, m.Errors[n])
		}
	}
	if raw, err := os.ReadFile(filepath.Join(bundleDir, "hostmon.json")); err == nil {
		var st hostmon.Status
		if json.Unmarshal(raw, &st) == nil {
			st.WriteSummary(w)
		}
	}
	cpu := filepath.Join(bundleDir, "cpu.pprof")
	if _, err := os.Stat(cpu); err == nil {
		fmt.Fprintf(w, "  cpu profile: go tool pprof -top %s\n", cpu)
	}
	return nil
}

// Evidence lists the evidence files a bundle holds in their own formats:
// its copied breach dumps, oldest first, then its capture tail.
func Evidence(bundleDir string) []string {
	paths, _ := flight.ListDumps(filepath.Join(bundleDir, flightSubdir))
	tail := filepath.Join(bundleDir, captureTailName)
	if _, err := os.Stat(tail); err == nil {
		paths = append(paths, tail)
	}
	return paths
}
