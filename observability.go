package slim

import (
	"html"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/hostmon"
	"slim/internal/obs/incident"
	"slim/internal/obs/slo"
	"slim/internal/obs/telemetry"
)

// Runtime observability facade. Every hot path in the package — session
// encoders, both transports, console decode, the session manager — reports
// live counters, gauges, and latency histograms into a process-wide
// registry (see internal/obs). The headline instrument is
// slim_input_to_paint_seconds: the paper's §3 interactive-latency metric,
// recorded per input event that draws — one its application answers with
// ops, so a key release or a button-less motion is counted
// (slim_input_events_total) but not timed — from capture through encode,
// wire, decode, and damage flush, globally and per session.

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

// TelemetryKit bundles the observers a server publishes into — metrics
// registry, flight recorder, SLO tracker, path estimator — on one clock
// (see internal/obs/telemetry). Point a server at one with WithTelemetry.
type TelemetryKit = telemetry.Kit

// Telemetry returns the process-wide wall-clock telemetry kit: what live
// servers, consoles and transports publish into unless redirected, and
// what the debug endpoint serves. The accessors below are its parts.
func Telemetry() *TelemetryKit { return telemetry.Default }

// NewTelemetry returns a private wall-clock kit for WithTelemetry —
// hermetic tests and embedders that keep several servers apart.
func NewTelemetry() *TelemetryKit { return telemetry.New(obs.DomainWall) }

// Metrics returns the process-wide wall-clock metrics registry that live
// servers, consoles, and transports publish into.
func Metrics() *MetricsRegistry { return telemetry.Default.Registry }

// SimMetrics returns the process-wide simulated-clock registry that
// netsim links publish into.
func SimMetrics() *MetricsRegistry { return obs.Sim }

// Recorder is a causal flight recorder (see internal/obs/flight) —
// per-session protocol event rings with breach dumps and Perfetto export.
type Recorder = flight.Recorder

// FlightRecorder returns the process-wide causal flight recorder: the
// per-session protocol event rings behind /debug/trace and the breach
// dumps (see internal/obs/flight). A breach is a latency above the SLO
// target (SLO().SetTarget); configure the dump directory here (SetDumpDir;
// empty keeps dumps off while breaches are still counted and marked in
// the ring). Servers and consoles record into it unless redirected.
func FlightRecorder() *flight.Recorder { return telemetry.Default.Flight }

// SLOTracker is the online latency SLO engine (see internal/obs/slo):
// rolling multi-window breach rates against the 150 ms / 1% objective,
// burn-rate computation, and OK/DEGRADED/BREACHING health states, per
// session and fleet-wide.
type SLOTracker = slo.Tracker

// SLOConfig parameterizes a tracker's objective and windows.
type SLOConfig = slo.Config

// SLO returns the process-wide wall-clock SLO tracker: live servers
// evaluate the input-to-paint latency of every input that draws against
// it unless redirected, and
// /debug/slo serves its state. SetTarget changes the per-event latency
// objective (default the paper's 150 ms annoyance bound), which is also
// the flight recorder's breach-dump threshold; SetBudget the
// allowed breach fraction (default 0.01: 1% of events may exceed it).
func SLO() *SLOTracker { return telemetry.Default.SLO }

// SetNetQualEnabled arms or disarms passive path estimation process-wide
// (see internal/obs/netqual): per-session smoothed RTT, jitter, loss, and
// delivered goodput derived purely from traffic the protocol already
// carries — STATUS acks, NACKs, and bandwidth grant round-trips. Disarmed,
// the observe paths cost one atomic load. /debug/netqual serves the
// estimates and slimstat's rtt/jitter/loss columns read their gauges.
func SetNetQualEnabled(on bool) { telemetry.Default.NetQual.SetEnabled(on) }

// Capture returns the process-wide wire-capture ring (disabled until a
// capture is started). The UDP transport and every fabric tap it; see
// internal/obs/capture and the .slimcap section of PROTOCOL.md.
func Capture() *capture.Ring { return telemetry.Default.Capture }

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
	// Records are stamped on obs.Wall; the header anchors its zero.
	if err := capture.WriteHeader(f, obs.DomainWall, time.Now().Add(-obs.Wall.Now())); err != nil {
		f.Close()
		return nil, err
	}
	cf := &CaptureFile{f: f, ring: telemetry.Default.Capture, ticker: time.NewTicker(250 * time.Millisecond),
		done: make(chan struct{})}
	cf.ring.SetEnabled(true)
	capturePath.Store(path) // incident bundles tail the live spool
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
// windows to the default flight recorder as HOST-verdict evidence; it is
// stopped until StartHostMonitor. The monitor stamps its stall windows
// from the wall clock the flight recorder reads, so the two overlap
// directly.
var (
	defaultMonitor = hostmon.New(obs.Wall, hostmon.Config{}).Instrument(telemetry.Default.Registry)

	defaultIncident atomic.Pointer[incident.Engine]
	capturePath     atomic.Value // string: live spool path for incident bundles
)

// HostMonitor returns the process-wide host-runtime monitor (see
// internal/obs/hostmon): slim_runtime_* series, the sample ring behind
// /debug/hostmon, and the stall windows behind HOST breach verdicts.
func HostMonitor() *hostmon.Monitor { return defaultMonitor }

// StartHostMonitor starts the default monitor and wires its stall windows
// into the default flight recorder, upgrading breach attribution with
// HOST verdicts. It leaves the CPU profiler free for /debug/pprof/profile.
// Returns a stop func that unwires and shuts the monitor down.
func StartHostMonitor() (stop func()) {
	telemetry.Default.Flight.SetHostEvidence(defaultMonitor.Windows)
	defaultMonitor.Start()
	return func() {
		telemetry.Default.Flight.SetHostEvidence(nil)
		defaultMonitor.Close()
	}
}

// IncidentEngine re-exports the SLO-triggered incident bundler.
type IncidentEngine = incident.Engine

// StartIncidents builds, wires, and starts the process-wide incident
// engine: SLO transitions into DEGRADED/BREACHING write rate-limited
// bundles under dir containing a short CPU profile, heap and goroutine
// dumps, flight breach dumps, the capture-spool tail, and the /debug/slo
// and hostmon snapshots. Returns the engine (Close to stop). Calling it
// again replaces the previous engine.
func StartIncidents(dir string) *IncidentEngine {
	capFile, _ := capturePath.Load().(string)
	e := incident.New(incident.Config{Dir: dir}, incident.Sources{
		SLO:         telemetry.Default.SLO,
		Monitor:     defaultMonitor,
		Registry:    telemetry.Default.Registry,
		FlightDir:   telemetry.Default.Flight.DumpDir(),
		CaptureFile: capFile,
	}).Instrument(telemetry.Default.Registry)
	e.Start()
	if old := defaultIncident.Swap(e); old != nil {
		old.Close()
	}
	return e
}

// Incidents returns the process-wide incident engine, or nil before
// StartIncidents.
func Incidents() *IncidentEngine { return defaultIncident.Load() }

// DebugEndpoint is one row of the debug-endpoint table: a mounted path,
// its one-line description, and the handler mounted there.
type DebugEndpoint struct {
	Path        string `json:"path"`
	Description string `json:"description"`
	handler     http.Handler
}

// jsonDoc serves the document status returns through the one JSON helper
// every /debug status endpoint shares (obs.JSONHandler).
func jsonDoc(status func() any) http.Handler {
	return obs.JSONHandler(func(*http.Request) (any, error) { return status(), nil })
}

// DebugEndpoints is the one table of everything DebugHandler mounts: the
// mux, the /debug/ index page and the README table all derive from it, so
// an endpoint cannot be served without being listed or listed without
// being served.
func DebugEndpoints() []DebugEndpoint {
	k := telemetry.Default
	return []DebugEndpoint{
		{"/metrics", "Prometheus text exposition of every live series (wall and sim domains)",
			obs.MetricsHandler(k.Registry, obs.Sim)},
		{"/debug/vars", "JSON snapshot of all registries, keyed by clock domain",
			obs.VarsHandler(k.Registry, obs.Sim)},
		{"/debug/pprof/", "standard net/http/pprof profile index (heap, goroutine, profile, trace, ...)",
			obs.PprofHandler()},
		{"/debug/trace", "Perfetto trace-event JSON from the flight recorder's session rings",
			k.Flight.TraceHandler()},
		{"/debug/slo", "SLO burn rates, OK/DEGRADED/BREACHING states, and breach-blame histograms",
			jsonDoc(func() any { return k.SLO.Status() })},
		{"/debug/netqual", "per-session passive path estimates: smoothed RTT, jitter, loss windows, goodput",
			jsonDoc(func() any { return k.NetQual.Status() })},
		{"/debug/hostmon", "host-runtime sample ring and GC/CPU stall windows",
			jsonDoc(func() any { return defaultMonitor.Status() })},
		{"/debug/incident", "incident bundles: GET lists manifests, POST ?trigger=reason writes one now",
			obs.JSONHandler(func(r *http.Request) (any, error) {
				e := Incidents()
				if e == nil {
					return nil, obs.StatusError{Code: http.StatusServiceUnavailable,
						Msg: "incident engine not started (slimd -incident-dir)"}
				}
				return e.Status(r)
			})},
	}
}

// debugIndex renders the endpoint table as a minimal HTML index at
// /debug/ (anything else under it is a 404).
func debugIndex(eps []DebugEndpoint) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/debug/" && r.URL.Path != "/debug" && r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
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

// DebugHandler returns the debug endpoint served by slimd -debug: every
// row of DebugEndpoints mounted at its path, plus /debug/ serving that
// table as an index page (the README's debug-endpoint table is the same
// list). Embed it in any HTTP server.
func DebugHandler() http.Handler {
	eps := DebugEndpoints()
	mux := http.NewServeMux()
	for _, ep := range eps {
		mux.Handle(ep.Path, ep.handler)
	}
	mux.Handle("/debug/", debugIndex(eps))
	mux.Handle("/", debugIndex(eps))
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
