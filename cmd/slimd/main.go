// Command slimd is the SLIM server daemon: it serves sessions to SLIM
// consoles over UDP. Each session runs the built-in glyph terminal, or —
// with -app — a video player (the §7 multimedia configurations). Register
// card tokens with -card token=user (repeatable).
//
// The daemon serves what every slim server serves, the profile the
// repository benchmark measures: every session paces its display traffic
// and loss recovery to its console's bandwidth grants (§7), owing what the
// grant cannot yet carry, and consoles advertising CACHE_PAINT get the
// gen-2 codec while gen-1 consoles keep the plain encoding.
//
// With -shards N (N > 1) the one UDP attach point fronts a session-broker
// fleet of N in-process server shards: the broker authenticates the card,
// places the session on a shard (-routing hash|leastloaded), and
// live-migrates it on hotdesk when the fleet is skewed by two sessions.
// Consoles never learn any of this; the console protocol is unchanged.
// Every other flag applies to each shard.
//
// Usage:
//
//	slimd -addr 127.0.0.1:5499 -card card-1=alice -card card-2=bob
//	slimd -shards 8 -routing leastloaded   # sharded fleet, rebalanced on hotdesk
//	slimd -app quake -fps 30       # every session plays the game stream
//	slimd -debug :6060             # live metrics + pprof on http://:6060
//	slimd -capture run.slimcap     # spool every datagram to a wire capture
//	slimd -slo-target 100ms -slo-budget 0.005   # tighten the latency SLO
//	slimd -hostmon                 # host runtime telemetry, HOST verdicts
//	slimd -netqual                 # passive per-session path RTT/loss estimation
//	slimd -incident-dir incidents  # SLO-triggered incident bundles
//	slimd -log-level debug -log-json   # structured logging to stderr
//
// With -debug, the daemon serves the debug endpoint on the given address;
// GET /debug/ for the index of everything mounted there. The headline
// metric is slim_input_to_paint_seconds, the paper's §3 interactive-latency figure,
// live per session: one sample per input that draws, so a keystroke is one
// (its release paints nothing and is counted in slim_input_events_total
// only). A fleet publishes every shard's series into the one
// registry the endpoint serves, as one server would (slim_sessions is the
// fleet total), and adds slim_broker_shard_sessions{shard="i"} (per-shard occupancy),
// slim_broker_migrations_total, and slim_broker_reattach_seconds (the
// hotdesk card-insert-to-attach latency histogram).
//
// With -capture, every datagram the transport sends or receives is
// spooled (timestamped, with payload) to a .slimcap file — see PROTOCOL.md
// — for offline per-command and per-path analysis with slimtrace explain.
//
// With -hostmon, the daemon samples runtime/metrics (GC pauses, scheduler
// latency, heap, goroutines) into slim_runtime_* series and feeds GC/CPU
// stall windows to the flight recorder so latency breaches caused by the
// host are attributed HOST rather than blamed on a pipeline stage. It
// never holds the CPU profiler: /debug/pprof/profile works with every flag.
//
// With -incident-dir, transitions of the fleet SLO into DEGRADED or
// BREACHING write a rate-limited incident bundle (profiles, dumps,
// capture tail, metric snapshots) under the given directory — read one
// back with slimtrace explain, or trigger one manually with
// POST /debug/incident?trigger=reason.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"slim"
)

type cardFlags []string

func (c *cardFlags) String() string { return strings.Join(*c, ",") }

func (c *cardFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want token=user, got %q", v)
	}
	*c = append(*c, v)
	return nil
}

// appFactory maps the -app flag to a session application constructor and
// reports whether the ticker must run.
func appFactory(name string, fps float64) (slim.AppFactory, bool, error) {
	switch name {
	case "terminal":
		return slim.WithTerminalApp(), false, nil
	case "desktop":
		// The desktop paints itself on the first tick.
		return slim.WithDesktopApp(), true, nil
	case "quake":
		return func(user string, w, h int) slim.Application {
			return slim.NewVideoApp(slim.NewQuakeSource(min(w, 640), min(h, 480), 3),
				slim.Rect{W: min(w, 640), H: min(h, 480)}, slim.CSCS5, fps)
		}, true, nil
	case "mpeg2":
		return func(user string, w, h int) slim.Application {
			return slim.NewVideoApp(slim.NewMPEG2Source(3),
				slim.Rect{W: min(w, 720), H: min(h, 480)}, slim.CSCS6, fps)
		}, true, nil
	case "ntsc":
		return func(user string, w, h int) slim.Application {
			return slim.NewVideoApp(slim.NewNTSCSource(3),
				slim.Rect{W: min(w, 640), H: min(h, 480)}, slim.CSCS8, fps)
		}, true, nil
	default:
		return nil, false, fmt.Errorf("unknown application %q", name)
	}
}

// routingPolicy maps the -routing flag to a placement policy.
func routingPolicy(name string) (slim.RoutingPolicy, error) {
	switch name {
	case "hash":
		return slim.RouteHash, nil
	case "leastloaded":
		return slim.RouteLeastLoaded, nil
	default:
		return slim.RouteHash, fmt.Errorf("unknown routing policy %q (want hash|leastloaded)", name)
	}
}

// daemon is what the rest of main needs of either listener: the
// single-server UDPServer or the fleet's UDPBroker.
type daemon interface {
	Addr() net.Addr
	Close() error
	StartTicker(fps float64)
}

// newLogger builds the daemon's structured logger from -log-level and
// -log-json.
func newLogger(level string, asJSON bool) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	if asJSON {
		h = slog.NewJSONHandler(os.Stderr, opts)
	} else {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h), nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:5499", "UDP address to listen on")
	debugAddr := flag.String("debug", "", "serve the debug endpoint (GET /debug/ for the index) on this HTTP address")
	shards := flag.Int("shards", 1, "in-process server shards behind this address; above 1 a session broker places and migrates sessions between them")
	routing := flag.String("routing", "hash", "with -shards above 1, session placement: hash|leastloaded")
	state := flag.String("state", "", "session state file: loaded at boot, saved at shutdown (single server only)")
	app := flag.String("app", "terminal", "session application: terminal|desktop|quake|mpeg2|ntsc")
	fps := flag.Float64("fps", 24, "video frame rate for video applications")
	flightDir := flag.String("flight-dir", "", "directory for flight-recorder breach dumps (empty: count breaches, write nothing)")
	capturePath := flag.String("capture", "", "spool a wire capture of every datagram to this .slimcap file")
	sloTarget := flag.Duration("slo-target", slim.SLO().Target(),
		"per-event latency objective the SLO engine evaluates against; also the flight recorder's breach-dump threshold")
	sloBudget := flag.Float64("slo-budget", slim.SLO().Budget(),
		"allowed breach fraction, e.g. 0.01 for 1% of events")
	netqualOn := flag.Bool("netqual", false, "estimate per-session path RTT/jitter/loss/goodput passively from STATUS/NACK/grant traffic (slim_netqual_*, /debug/netqual)")
	hostmonOn := flag.Bool("hostmon", false, "sample host runtime telemetry (slim_runtime_*) and attribute HOST-caused latency breaches")
	incidentDir := flag.String("incident-dir", "", "write SLO-triggered incident bundles under this directory (implies -hostmon)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
	var cards cardFlags
	flag.Var(&cards, "card", "register a smart card as token=user (repeatable)")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slimd:", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	slim.SLO().SetTarget(*sloTarget)
	slim.SLO().SetBudget(*sloBudget)
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fatal("flight dump dir", "err", err)
		}
		slim.FlightRecorder().SetDumpDir(*flightDir)
		logger.Info("flight-recorder breach dumps on",
			"threshold", slim.SLO().Target(), "dir", *flightDir)
	}

	if len(cards) == 0 {
		cards = append(cards, "card-demo=demo")
	}
	factory, video, err := appFactory(*app, *fps)
	if err != nil {
		fatal("bad -app", "err", err)
	}
	policy, err := routingPolicy(*routing)
	if err != nil {
		fatal("bad -routing", "err", err)
	}
	if *shards < 1 {
		fatal("bad -shards", "shards", *shards)
	}
	if *shards > 1 && *state != "" {
		fatal("-state saves one server's session table; it cannot be combined with -shards above 1")
	}
	// The server's own defaults are slimd's profile (see the package
	// comment).
	opts := []slim.ServerOption{slim.WithLogger(logger)}
	if *capturePath != "" {
		cf, err := slim.StartCapture(*capturePath)
		if err != nil {
			fatal("start capture", "err", err)
		}
		defer func() {
			if err := cf.Close(); err != nil {
				logger.Error("capture close", "err", err)
			}
		}()
		logger.Info("spooling wire capture",
			"path", *capturePath, "explain", "slimtrace explain "+*capturePath)
	}
	if *netqualOn {
		// Shards share the process-wide tracker (session IDs are disjoint
		// per shard), so estimator state follows a session across hotdesk
		// migrations and the broker rolls it up per shard.
		slim.SetNetQualEnabled(true)
		logger.Info("passive path estimation on",
			"series", "slim_netqual_*", "watch", "/debug/netqual")
	}
	if *hostmonOn || *incidentDir != "" {
		stop := slim.StartHostMonitor()
		defer stop()
		logger.Info("host runtime telemetry on")
	}
	if *incidentDir != "" {
		if err := os.MkdirAll(*incidentDir, 0o755); err != nil {
			fatal("incident dir", "err", err)
		}
		eng := slim.StartIncidents(*incidentDir)
		defer eng.Close()
		logger.Info("incident bundles on",
			"dir", *incidentDir, "explain", "slimtrace explain "+*incidentDir)
	}
	// Cards enroll through the Directory surface: Single is the one-shard
	// implementation, a Broker shares one registry across its shards so a
	// card works wherever its session migrates.
	var (
		srv    daemon
		dir    slim.Directory
		single *slim.Server
	)
	if *shards == 1 {
		u, err := slim.ListenAndServeContext(context.Background(), *addr, factory, opts...)
		if err != nil {
			fatal("listen", "addr", *addr, "err", err)
		}
		srv, dir, single = u, slim.NewSingle(u.Server), u.Server
	} else {
		u, err := slim.ListenAndServeBroker(context.Background(), *addr, slim.BrokerConfig{
			Shards:  *shards,
			Routing: policy,
		}, factory, opts...)
		if err != nil {
			fatal("listen", "addr", *addr, "err", err)
		}
		srv, dir = u, u.Broker
	}
	defer srv.Close()
	if *debugAddr != "" {
		dbg, err := slim.ServeDebug(*debugAddr)
		if err != nil {
			fatal("debug endpoint", "addr", *debugAddr, "err", err)
		}
		defer dbg.Close()
		logger.Info("debug endpoint up",
			"url", "http://"+*debugAddr+"/debug/")
		logger.Info("latency SLO",
			"target", *sloTarget, "budget_pct", *sloBudget*100, "watch", "/debug/slo")
	}
	if video {
		srv.StartTicker(*fps * 2) // tick faster than the frame rate
	}
	if *state != "" {
		if f, err := os.Open(*state); err == nil {
			loadErr := single.LoadSessions(f)
			f.Close()
			if loadErr != nil {
				fatal("load state", "path", *state, "err", loadErr)
			}
			logger.Info("restored sessions", "path", *state)
		} else if !os.IsNotExist(err) {
			fatal("open state", "path", *state, "err", err)
		}
	}
	for _, c := range cards {
		parts := strings.SplitN(c, "=", 2)
		dir.Register(slim.TokenOf(parts[0]), parts[1])
		logger.Info("registered card", "token", parts[0], "user", parts[1])
	}
	logger.Info("serving SLIM sessions",
		"addr", srv.Addr(), "app", *app, "shards", *shards, "routing", *routing)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	if *state != "" {
		f, err := os.Create(*state)
		if err != nil {
			fatal("create state", "path", *state, "err", err)
		}
		if err := single.SaveSessions(f); err != nil {
			fatal("save sessions", "err", err)
		}
		if err := f.Close(); err != nil {
			fatal("close state", "err", err)
		}
		logger.Info("sessions saved; they resume on the next start", "path", *state)
		return
	}
	logger.Info("sessions persist only in this process")
}
