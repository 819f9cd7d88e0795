// Package telemetry bundles the observers a SLIM deployment shares — the
// metrics registry, the flight recorder, the SLO tracker, the path
// estimator and the wire-capture ring — into one Kit on one obs.Clock, and
// gives each session one handle onto all of them. A server is pointed at a
// kit with a single option, a session resolves everything it publishes in
// one call and releases it in one call, and because every observer in a
// kit stamps from the kit's clock their evidence lines up without
// translation.
package telemetry

import (
	"time"

	"slim/internal/obs"
	"slim/internal/obs/capture"
	"slim/internal/obs/flight"
	"slim/internal/obs/netqual"
	"slim/internal/obs/slo"
)

// Kit is one set of observers on one clock. The fields are exported so a
// caller can swap a part before handing the kit to a server (an SLO
// tracker with other windows, say); New has already wired Flight to read
// NetQual's path evidence, so those two stay as built.
type Kit struct {
	Clock    *obs.Clock
	Registry *obs.Registry
	// Flight records per-session protocol events and dumps breaches; SLO
	// evaluates input-to-paint latency and its target decides what a
	// breach is; NetQual estimates each session's path (disarmed until
	// SetEnabled).
	Flight  *flight.Recorder
	SLO     *slo.Tracker
	NetQual *netqual.Tracker
	// Capture is the wire tap transports record into. New leaves it nil —
	// the valid, permanently disabled ring — because a ring preallocates
	// its slots; only Default carries one.
	Capture *capture.Ring
}

// Default is the process-wide wall-clock kit: what live servers, consoles
// and transports publish into unless handed another, and what the debug
// endpoint serves.
var Default = func() *Kit {
	k := New(obs.DomainWall)
	k.Capture = capture.NewRing(0).Instrument(k.Registry)
	return k
}()

// New returns a kit in the given clock domain: a fresh registry with a
// recorder, an SLO tracker (the paper's default objective) and a path
// estimator instrumented into it, all on one clock — obs.Wall, or for
// DomainSim a virtual clock of the kit's own.
func New(d obs.Domain) *Kit {
	k := &Kit{Clock: obs.NewClock(d), Registry: obs.NewRegistry(d)}
	k.Flight = flight.NewOn(k.Clock).Instrument(k.Registry)
	k.SLO = slo.New(k.Clock, slo.Config{}).Instrument(k.Registry)
	k.NetQual = netqual.New(k.Clock).Instrument(k.Registry)
	k.Flight.SetPathEvidence(k.NetQual.PathEvidence)
	return k
}

// SessionStore is a per-session store keyed by the fleet-unique session
// ID. Shards share the stores, so a migration leaves a session's entries
// for the importing shard to resolve again and only termination evicts
// them.
type SessionStore interface {
	SessionIDs() []uint32
	Remove(id uint32)
}

// SessionStores lists every per-session store in the kit. Session.Close
// evicts from exactly this list, and the eviction test walks it, so a
// store added here cannot be forgotten at teardown.
func (k *Kit) SessionStores() []SessionStore {
	return []SessionStore{k.Flight, k.SLO, k.NetQual}
}

// Session is one session's handle onto the kit: everything the session
// publishes or records, resolved together and released together.
type Session struct {
	kit *Kit
	id  uint32
	// Series resolves the labeled metrics the session publishes into the
	// kit's registry; Close removes exactly what was resolved through it.
	Series *obs.Labeled
	// InputToPaint is the session's live input-to-paint histogram (§3's
	// canonical interactive-latency metric), labeled with the user name.
	InputToPaint *obs.Histogram
	// Flight is the session's flight-recorder ring, SLO its rolling SLO
	// state, Path its passive path estimator. All three are keyed by the
	// session ID, so a migrated session resolves the state it already has.
	Flight *flight.SessionLog
	SLO    *slo.SessionSLO
	Path   *netqual.PathSession
}

// Session resolves a session's handle, creating whatever does not exist.
func (k *Kit) Session(id uint32, user string) *Session {
	s := &Session{kit: k, id: id, Series: k.Registry.Labeled("session", user)}
	s.InputToPaint = s.Series.Histogram("slim_input_to_paint_seconds")
	s.Flight = k.Flight.Session(id)
	s.SLO = k.SLO.Session(id, user)
	s.Path = k.NetQual.Session(id, user)
	return s
}

// ObservePaint is the post-paint hook for one input that drew, with wall the
// reading of obs.Wall that ended the latency (the SLO's observation
// instant on a wall kit): the latency is evaluated against the SLO, and a
// latency above the SLO target — the one breach predicate, whether or not
// the SLO is armed — is recorded by the flight recorder and its verdict
// credited to the session's blame histogram.
func (s *Session) ObservePaint(wall, latency time.Duration) {
	s.SLO.Observe(wall, latency)
	if target := s.kit.SLO.Target(); latency > target {
		if br, ok := s.kit.Flight.RecordBreach(s.id, latency, target); ok {
			s.SLO.RecordBlame(br.Verdict.Stage)
		}
	}
}

// Close releases the handle: the labeled series leave the registry, and —
// when evictShared, because the session is being destroyed rather than
// moved to another shard — its entries leave every shared store.
func (s *Session) Close(evictShared bool) {
	s.Series.Remove()
	if evictShared {
		for _, st := range s.kit.SessionStores() {
			st.Remove(s.id)
		}
	}
}
