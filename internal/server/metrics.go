package server

import "slim/internal/obs"

// metrics is the session manager's live instrument set, resolved once per
// server so the input and attach paths pay only atomic operations.
type metrics struct {
	// sessions is the number of live sessions (attached or detached). Each
	// server moves it by one per session created or closed, so servers
	// sharing a registry — a broker's shards — keep one count between them.
	sessions *obs.Gauge
	// attaches counts session→console attachments (first logins and
	// mobility moves alike); reconnects counts the subset that re-attached
	// an existing session (a card re-inserted somewhere).
	attaches   *obs.Counter
	reconnects *obs.Counter
	// authFailures counts rejected card tokens.
	authFailures *obs.Counter
	// nacksRejected counts NACKs dropped unanswered: a backwards range, or
	// one naming a sequence number the session has not issued yet.
	nacksRejected *obs.Counter
	// inputEvents counts keystrokes and pointer updates from known consoles.
	inputEvents *obs.Counter
	// inputToPaint is the paper's canonical interactive-latency metric
	// (§3): input that draws captured → its display commands encoded,
	// shipped, and — on a synchronous transport such as the in-process
	// fabric — decoded and flushed into the console frame buffer. Each
	// session additionally records into its own labeled histogram.
	inputToPaint *obs.Histogram
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		sessions:      r.Gauge("slim_sessions"),
		attaches:      r.Counter("slim_session_attaches_total"),
		reconnects:    r.Counter("slim_session_reconnects_total"),
		authFailures:  r.Counter("slim_auth_failures_total"),
		nacksRejected: r.Counter("slim_nacks_rejected_total"),
		inputEvents:   r.Counter("slim_input_events_total"),
		inputToPaint:  r.Histogram("slim_input_to_paint_seconds"),
	}
}
