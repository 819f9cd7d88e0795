package slim

import (
	"html"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"slim/internal/core"
	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/incident"
	"slim/internal/obs/netqual"
	"slim/internal/obs/slo"
)

// Runtime observability facade. Every hot path in the package — session
// encoders, both transports, console decode, the session manager — reports
// live counters, gauges, and latency histograms into a process-wide
// registry (see internal/obs). The headline instrument is
// slim_input_to_paint_seconds: the paper's §3 interactive-latency metric,
// recorded per input event from capture through encode, wire, decode, and
// damage flush, globally and per session.

// Metrics re-exports the obs registry and snapshot types.
type (
	// MetricsRegistry is a named collection of live metrics in one clock
	// domain (wall or simulated).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// HistogramSnapshot is a copied histogram with p50/p95/p99 computed.
	HistogramSnapshot = obs.HistogramSnapshot
)

// Metrics returns the process-wide wall-clock metrics registry that live
// servers, consoles, and transports publish into.
func Metrics() *MetricsRegistry { return obs.Default }

// SimMetrics returns the process-wide simulated-clock registry that
// netsim links publish into.
func SimMetrics() *MetricsRegistry { return obs.Sim }

// Recorder is a causal flight recorder (see internal/obs/flight) —
// per-session protocol event rings with breach dumps and Perfetto export.
type Recorder = flight.Recorder

// FlightRecorder returns the process-wide causal flight recorder: the
// per-session protocol event rings behind /debug/trace and the breach
// dumps (see internal/obs/flight). Configure its threshold and dump
// directory here; servers and consoles record into it unless redirected.
func FlightRecorder() *flight.Recorder { return flight.Default }

// SetFlightThreshold sets the input-to-paint latency above which the
// flight recorder dumps a session's recent events (default 150 ms, the
// paper's §3 annoyance bound; 0 disables breach detection).
func SetFlightThreshold(d time.Duration) { flight.Default.SetThreshold(d) }

// SetFlightDumpDir directs breach dumps to dir (empty keeps dumps off;
// breaches are still counted and marked in the ring).
func SetFlightDumpDir(dir string) { flight.Default.SetDumpDir(dir) }

// SLOTracker is the online latency SLO engine (see internal/obs/slo):
// rolling multi-window breach rates against the 150 ms / 1% objective,
// burn-rate computation, and OK/DEGRADED/BREACHING health states, per
// session and fleet-wide.
type SLOTracker = slo.Tracker

// SLOConfig parameterizes a tracker's objective and windows.
type SLOConfig = slo.Config

// SLO returns the process-wide wall-clock SLO tracker: live servers
// evaluate every input-to-paint latency against it unless redirected, and
// /debug/slo serves its state.
func SLO() *SLOTracker { return slo.Default }

// SetSLOTarget sets the per-event latency objective (default the paper's
// 150 ms annoyance bound).
func SetSLOTarget(d time.Duration) { slo.Default.SetTarget(d) }

// SetSLOBudget sets the allowed breach fraction (default 0.01: 1% of
// events may exceed the target).
func SetSLOBudget(b float64) { slo.Default.SetBudget(b) }

// NetQualTracker is the passive network-path estimator (see
// internal/obs/netqual): per-session smoothed RTT, jitter, loss, and
// delivered goodput derived purely from traffic the protocol already
// carries — STATUS acks, NACKs, and bandwidth grant round-trips.
type NetQualTracker = netqual.Tracker

// NetQual returns the process-wide wall-clock path estimator: live
// servers register sessions here unless redirected, /debug/netqual serves
// its state, and slimstat's rtt/jitter/loss columns read its gauges.
// Disabled (observe paths cost one atomic load) until SetNetQualEnabled
// or slimd -netqual.
func NetQual() *NetQualTracker { return netqual.Default }

// SetNetQualEnabled arms or disarms passive path estimation process-wide.
func SetNetQualEnabled(on bool) { netqual.Default.SetEnabled(on) }

// defaultCalibrator is the process-wide cost calibrator behind
// Calibrator() and /debug/costmodel, instrumented in the default registry
// so its drift gauges appear in /metrics.
var defaultCalibrator = core.NewCalibrator(nil).Instrument(obs.Default)

// Calibrator returns the process-wide cost-model calibrator. Point a
// console's ConsoleConfig.Calibrator at it (and a server at
// WithCalibratedCosts(slim.Calibrator())) and /debug/costmodel shows the
// measured-versus-Table-5 fit for this host.
func Calibrator() *CostCalibrator { return defaultCalibrator }

// CostModelHandler serves cal's live calibration state — the fitted
// startup/per-pixel costs, R², sample counts, and drift versus Table 5 —
// as an indented JSON document. DebugHandler mounts it for the default
// calibrator at /debug/costmodel.
func CostModelHandler(cal *CostCalibrator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = cal.WriteJSON(w)
	})
}

// Capture returns the process-wide wire-capture ring (disabled until a
// capture is started). The UDP transport and every fabric tap it; see
// internal/obs/capture and the .slimcap section of PROTOCOL.md.
func Capture() *capture.Ring { return capture.Default }

// CaptureFile is an in-progress wire capture spooling to disk.
type CaptureFile struct {
	f      *os.File
	ring   *capture.Ring
	ticker *time.Ticker
	done   chan struct{}
	once   sync.Once

	mu  sync.Mutex // serializes spools and guards err
	err error
}

// spool drains the ring to the file under the spool lock.
func (c *CaptureFile) spool() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.ring.SpoolTo(c.f); err != nil && c.err == nil {
		c.err = err
	}
}

// StartCapture enables the process-wide capture ring and spools it to a
// .slimcap file at path until Close. The spool runs in the background a
// few times a second; ring drops (bursts outrunning the spooler) are
// counted in slim_capture_ring_drops_total rather than blocking
// transports.
func StartCapture(path string) (*CaptureFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := capture.WriteHeader(f, obs.DomainWall, time.Now()); err != nil {
		f.Close()
		return nil, err
	}
	cf := &CaptureFile{f: f, ring: capture.Default, ticker: time.NewTicker(250 * time.Millisecond),
		done: make(chan struct{})}
	cf.ring.SetEnabled(true)
	captureMu.Lock()
	capturePath = path // incident bundles tail the live spool
	captureMu.Unlock()
	go func() {
		for {
			select {
			case <-cf.ticker.C:
				cf.spool()
			case <-cf.done:
				return
			}
		}
	}()
	return cf, nil
}

// Close disables the capture, spools the remaining records, and closes
// the file. Safe to call more than once.
func (c *CaptureFile) Close() error {
	c.once.Do(func() {
		c.ring.SetEnabled(false)
		c.ticker.Stop()
		close(c.done)
		c.spool()
		c.mu.Lock()
		if err := c.f.Close(); err != nil && c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Host-runtime telemetry facade. The default monitor samples
// runtime/metrics into the default registry and feeds GC/CPU stall
// windows to the default flight recorder as HOST-verdict evidence; the
// default profiler keeps a rotating ring of short CPU-profile windows.
// Both are stopped until StartHostMonitor.
var (
	defaultMonitor = hostmon.New(hostmon.Config{Clock: flight.Default.Clock}).
			Instrument(obs.Default)
	defaultProfiler = hostmon.NewProfiler(0, 0, 0).Instrument(obs.Default)

	incidentMu      sync.Mutex
	defaultIncident *incident.Engine

	captureMu   sync.Mutex
	capturePath string // live spool path for incident bundles
)

// HostMonitor returns the process-wide host-runtime monitor (see
// internal/obs/hostmon): slim_runtime_* series, the sample ring behind
// /debug/hostmon, and the stall windows behind HOST breach verdicts.
func HostMonitor() *hostmon.Monitor { return defaultMonitor }

// HostProfiler returns the process-wide continuous CPU profiler: a
// rotating ring of short pprof windows with top-N self-time gauges.
func HostProfiler() *hostmon.Profiler { return defaultProfiler }

// StartHostMonitor starts the default monitor and profiler and wires the
// monitor's stall windows into the default flight recorder, upgrading
// breach attribution with HOST verdicts. Returns a stop func that
// unwires and shuts both down.
func StartHostMonitor() (stop func()) {
	flight.Default.SetHostEvidence(defaultMonitor.Windows)
	defaultMonitor.Start()
	defaultProfiler.Start()
	return func() {
		flight.Default.SetHostEvidence(nil)
		defaultMonitor.Close()
		defaultProfiler.Close()
	}
}

// IncidentEngine re-exports the SLO-triggered incident bundler.
type IncidentEngine = incident.Engine

// StartIncidents builds, wires, and starts the process-wide incident
// engine: SLO transitions into DEGRADED/BREACHING write rate-limited
// bundles under dir containing the current CPU-profile window, heap and
// goroutine dumps, flight breach dumps, the capture-spool tail, and the
// /debug/slo, /debug/costmodel, and hostmon snapshots. Returns the
// engine (Close to stop). Calling it again replaces the previous engine.
func StartIncidents(dir string) *IncidentEngine {
	captureMu.Lock()
	capFile := capturePath
	captureMu.Unlock()
	e := incident.New(incident.Config{Dir: dir}, incident.Sources{
		SLO:         slo.Default,
		Monitor:     defaultMonitor,
		Profiler:    defaultProfiler,
		Registry:    obs.Default,
		Costmodel:   defaultCalibrator.WriteJSON,
		FlightDir:   flight.Default.DumpDir(),
		CaptureFile: capFile,
	}).Instrument(obs.Default)
	e.Start()
	incidentMu.Lock()
	old := defaultIncident
	defaultIncident = e
	incidentMu.Unlock()
	if old != nil {
		old.Close()
	}
	return e
}

// Incidents returns the process-wide incident engine, or nil before
// StartIncidents.
func Incidents() *IncidentEngine {
	incidentMu.Lock()
	defer incidentMu.Unlock()
	return defaultIncident
}

// DebugEndpoint is one entry in the debug-endpoint table: a mounted path
// and its one-line description.
type DebugEndpoint struct {
	Path        string `json:"path"`
	Description string `json:"description"`
}

// DebugEndpoints is the canonical table of every endpoint DebugHandler
// mounts — the /debug/ index page and the README table both derive from
// it.
func DebugEndpoints() []DebugEndpoint {
	return []DebugEndpoint{
		{"/metrics", "Prometheus text exposition of every live series (wall and sim domains)"},
		{"/debug/vars", "JSON snapshot of all registries, keyed by clock domain"},
		{"/debug/pprof/", "standard net/http/pprof profile index (heap, goroutine, profile, trace, ...)"},
		{"/debug/trace", "Perfetto trace-event JSON from the flight recorder's session rings"},
		{"/debug/costmodel", "live cost-model calibration fit versus the paper's Table 5"},
		{"/debug/slo", "SLO burn rates, OK/DEGRADED/BREACHING states, and breach-blame histograms"},
		{"/debug/netqual", "per-session passive path estimates: smoothed RTT, jitter, loss windows, goodput"},
		{"/debug/hostmon", "host-runtime sample ring, GC/CPU stall windows, and top-N profile self-time"},
		{"/debug/incident", "incident bundles: GET lists manifests, POST ?trigger=reason writes one now"},
	}
}

// debugIndex renders the endpoint table as a minimal HTML index at
// /debug/ (and JSON with ?format=json).
func debugIndex() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/" && r.URL.Path != "/debug" && r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		eps := DebugEndpoints()
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write([]byte("<!DOCTYPE html><html><head><title>slimd debug</title></head><body>" +
			"<h1>slimd debug endpoints</h1><table border=\"0\" cellpadding=\"4\">\n"))
		for _, ep := range eps {
			w.Write([]byte(`<tr><td><a href="` + ep.Path + `">` + ep.Path + `</a></td><td>` +
				html.EscapeString(ep.Description) + "</td></tr>\n"))
		}
		w.Write([]byte("</table></body></html>\n"))
	})
}

// DebugHandler returns the debug endpoint served by slimd -debug. The
// mounted paths and their descriptions are exactly DebugEndpoints —
// /debug/ serves that table as an index page; see the README's
// debug-endpoint table for the same list. Embed it in any HTTP server.
func DebugHandler() http.Handler {
	mux := obs.DebugMux(obs.Default, obs.Sim)
	mux.Handle("/debug/trace", flight.Default.TraceHandler())
	mux.Handle("/debug/costmodel", CostModelHandler(defaultCalibrator))
	mux.Handle("/debug/slo", slo.Default.Handler())
	mux.Handle("/debug/netqual", netqual.Default.Handler())
	mux.Handle("/debug/hostmon", defaultMonitor.Handler(defaultProfiler))
	mux.Handle("/debug/incident", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e := Incidents()
		if e == nil {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			http.Error(w, `{"error":"incident engine not started (slimd -incident-dir)"}`,
				http.StatusServiceUnavailable)
			return
		}
		e.Handler().ServeHTTP(w, r)
	}))
	mux.Handle("/debug/", debugIndex())
	mux.Handle("/", debugIndex())
	return mux
}

// ServeDebug binds addr and serves DebugHandler in the background,
// returning the server (Close to stop) once the listener is up.
func ServeDebug(addr string) (*http.Server, error) {
	srv := &http.Server{Addr: addr, Handler: DebugHandler()}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
