// Package broker is the session-directory tier that scales SLIM past one
// server: N in-process server shards behind a single attach point. The
// paper's deployment model (§2.4, and the thin-client-labs follow-up) is
// many consoles and a pool of servers; what makes it work is that consoles
// are stateless, so *where* a session lives is purely a directory decision.
// The broker owns that decision: it authenticates card tokens fleet-wide,
// routes each console's traffic to the shard hosting its session, and —
// when a hotdesk would land a user on an overloaded shard — live-migrates
// the session (quiesce → snapshot → replay → redirect, see
// internal/server/migrate.go) while the console stays dumb throughout.
//
// Routing is deliberately boring on the hot path: one read-locked map
// lookup from console ID to shard index, with the message type peeked from
// the raw wire so non-attach datagrams are never decoded here. The console
// table is the broker's only table: which shard hosts a user's session is
// asked of the shards, on the slow paths that need it. Only Hello and
// SessionConnect take the slow path through authentication and placement.
package broker

import (
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
	"slim/internal/server"
)

// Policy selects how the broker places sessions on shards.
type Policy int

const (
	// RouteHash places each user on the shard their name hashes to —
	// stable, stateless placement: the same user always lands on the same
	// shard, so hotdesking never migrates (FNV-1a mod shard count).
	RouteHash Policy = iota
	// RouteLeastLoaded places new sessions on the emptiest shard and
	// rebalances on hotdesk: when a user badges in and their home shard
	// holds at least DefaultMigrateSlack more sessions than the emptiest
	// one, the session migrates as part of the attach.
	RouteLeastLoaded
)

func (p Policy) String() string {
	switch p {
	case RouteHash:
		return "hash"
	case RouteLeastLoaded:
		return "least-loaded"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// DefaultMigrateSlack is the load imbalance (in sessions) that triggers a
// rebalancing migration on hotdesk under RouteLeastLoaded. Moving a session
// shrinks its source by one and grows its target by one, so anything below
// 2 would oscillate.
const DefaultMigrateSlack = 2

// ShardIDSpace is the size of each shard's session-ID space: shard i
// issues IDs starting at i*ShardIDSpace (see server.WithSessionIDBase), so
// IDs stay unique — and routable — fleet-wide even after migrations.
const ShardIDSpace = 1 << 24

// Config parameterizes a Broker.
type Config struct {
	// Shards is the fleet size (at least 1).
	Shards int
	// Policy selects session placement (default RouteHash).
	Policy Policy
	// NewShard builds shard i. The constructor must give each shard a
	// disjoint session-ID base (server.WithSessionIDBase(uint32(i)*
	// ShardIDSpace)); the slim facade's NewBroker does this for callers.
	NewShard func(i int) *server.Server
	// Registry receives the broker's fleet metrics — the per-shard session
	// rollup gauges, migration and routing counters, and (wall registries
	// only) the reattach-latency histogram. Nil means telemetry.Default's.
	// Shards publishing into the same registry add up there as one server.
	Registry *obs.Registry
	// Logger receives broker lifecycle events (attach, migrate, evict);
	// nil is silent.
	Logger *slog.Logger
}

// Errors returned by the broker.
var (
	ErrClosed = errors.New("broker: closed")
	// ErrBadShard rejects an out-of-range shard index.
	ErrBadShard = errors.New("broker: no such shard")
)

// consoleInfo is the broker's registration for one console: its advertised
// geometry (replayed to a shard when the console is redirected there), the
// shard currently handling its traffic, and whether that shard has
// actually received a Hello for it (a Hello carrying a card token is held
// at the broker until placement decides which shard gets it).
type consoleInfo struct {
	w, h       uint16
	caps       uint16
	shard      int
	registered bool
}

// Broker routes consoles to session shards and migrates sessions between
// them. It exposes the same Handle/HandleDatagram surface as a single
// server, so transports (UDP, the in-process fabric) drive either
// interchangeably.
type Broker struct {
	auth   *server.AuthManager
	shards []*server.Server
	policy Policy
	log    *slog.Logger

	// admin serializes the slow paths — attach, migrate, terminate — so
	// placement decisions see consistent shard loads. It is never held
	// while routeMu is, and never spans a re-entrant fast-path call.
	admin sync.Mutex
	// routeMu guards the console table only; the datagram fast path takes
	// it for one lookup and releases it before entering the shard.
	routeMu  sync.RWMutex
	consoles map[string]consoleInfo
	closed   bool

	m *metrics
}

// New builds a broker and its shard fleet from cfg.
func New(cfg Config) (*Broker, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("broker: need at least 1 shard, got %d", cfg.Shards)
	}
	if cfg.NewShard == nil {
		return nil, fmt.Errorf("broker: Config.NewShard is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default.Registry
	}
	b := &Broker{
		auth:     server.NewAuthManager(),
		shards:   make([]*server.Server, cfg.Shards),
		policy:   cfg.Policy,
		log:      cfg.Logger,
		consoles: make(map[string]consoleInfo),
		m:        newMetrics(reg, cfg.Shards),
	}
	for i := range b.shards {
		sh := cfg.NewShard(i)
		if sh == nil {
			return nil, fmt.Errorf("broker: NewShard(%d) returned nil", i)
		}
		// All shards verify against the broker's directory: one card
		// registry for the whole fleet.
		sh.Auth = b.auth
		b.shards[i] = sh
	}
	return b, nil
}

// Register binds a card token to a user fleet-wide.
func (b *Broker) Register(token, user string) { b.auth.Register(token, user) }

// Revoke removes a card token fleet-wide.
func (b *Broker) Revoke(token string) { b.auth.Revoke(token) }

// Auth exposes the fleet-wide authentication manager.
func (b *Broker) Auth() *server.AuthManager { return b.auth }

// Shards reports the fleet size.
func (b *Broker) Shards() int { return len(b.shards) }

// Shard exposes one shard server.
func (b *Broker) Shard(i int) *server.Server { return b.shards[i] }

// home asks each shard in turn for a user's session: the shard hosting it
// and the session, or -1 and nil when no shard has one.
func (b *Broker) home(user string) (int, *server.Session) {
	for i, sh := range b.shards {
		if sess := sh.SessionByUser(user); sess != nil {
			return i, sess
		}
	}
	return -1, nil
}

// Locate reports the shard currently hosting a user's session.
func (b *Broker) Locate(user string) (int, bool) {
	if i, sess := b.home(user); sess != nil {
		return i, true
	}
	return 0, false
}

// Sessions reports the fleet-wide live session count.
func (b *Broker) Sessions() int {
	n := 0
	for _, sh := range b.shards {
		n += sh.SessionCount()
	}
	return n
}

// Close marks the broker closed; further messages are rejected. Shard
// state is left intact (sessions persist server side by design).
func (b *Broker) Close() error {
	b.routeMu.Lock()
	b.closed = true
	b.routeMu.Unlock()
	return nil
}

// fnv1a is the routing hash — inlined so the hot path stays allocation
// free (hash/fnv's interface indirection would escape).
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ShardFor resolves the shard index one raw console datagram routes to
// without decoding it: attach messages report -1 (they take the slow path
// through placement), and everything else — bandwidth grants included —
// routes by the console's registration. A grant counts only from the
// console showing its session, and that console routes to the session's
// shard. ok is false for consoles the broker has never seen. This is the
// zero-allocation routing hot path.
func (b *Broker) ShardFor(console string, wire []byte) (shard int, ok bool) {
	if len(wire) < protocol.HeaderSize {
		return -1, false
	}
	switch protocol.MsgType(wire[3]) {
	case protocol.TypeHello, protocol.TypeSessionConnect:
		return -1, false
	}
	b.routeMu.RLock()
	ci, found := b.consoles[console]
	b.routeMu.RUnlock()
	if !found {
		return -1, false
	}
	return ci.shard, true
}

// HandleDatagram routes one raw console datagram. Non-attach traffic is
// forwarded to its shard undecoded.
func (b *Broker) HandleDatagram(console string, wire []byte, now time.Duration) error {
	if len(wire) < protocol.HeaderSize {
		_, _, _, err := protocol.Decode(wire)
		return err
	}
	switch protocol.MsgType(wire[3]) {
	case protocol.TypeHello, protocol.TypeSessionConnect:
		_, msg, _, err := protocol.Decode(wire)
		if err != nil {
			return err
		}
		return b.Handle(console, msg, now)
	}
	shard, ok := b.ShardFor(console, wire)
	if !ok {
		return fmt.Errorf("%w: %q", server.ErrUnknownConsole, console)
	}
	b.m.routed.Inc()
	return b.shards[shard].HandleDatagram(console, wire, now)
}

// Handle routes one already-decoded console message.
func (b *Broker) Handle(console string, msg protocol.Message, now time.Duration) error {
	b.routeMu.RLock()
	closed := b.closed
	b.routeMu.RUnlock()
	if closed {
		return ErrClosed
	}
	switch m := msg.(type) {
	case *protocol.Hello:
		return b.handleHello(console, m, now)
	case *protocol.SessionConnect:
		return b.handleConnect(console, m.Token, now)
	}
	b.routeMu.RLock()
	ci, ok := b.consoles[console]
	b.routeMu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", server.ErrUnknownConsole, console)
	}
	b.m.routed.Inc()
	return b.shards[ci.shard].Handle(console, msg, now)
}

// handleHello registers (or re-registers) a console. A bare Hello homes
// the console by hash — a login screen has to live somewhere — and a Hello
// carrying a card token continues into the attach path.
func (b *Broker) handleHello(console string, m *protocol.Hello, now time.Duration) error {
	b.routeMu.Lock()
	ci, known := b.consoles[console]
	if !known {
		ci = consoleInfo{shard: int(fnv1a(console) % uint32(len(b.shards)))}
	}
	ci.w, ci.h, ci.caps = m.Width, m.Height, m.Caps
	// A Hello is a (re)boot: whatever shard-side registration existed is
	// stale until the broker forwards a fresh one.
	ci.registered = false
	b.consoles[console] = ci
	b.routeMu.Unlock()
	if m.CardToken == "" {
		return b.registerConsole(ci.shard, console, ci, now)
	}
	return b.attach(console, m.CardToken, now)
}

// registerConsole announces a console's geometry and capabilities to a
// shard — the Hello the shard would have received had the console booted
// against it directly, minus the card token the broker already resolved —
// and records that shard as the console's route. ci is the caller's read
// of the registration; a bare Hello runs outside b.admin, so if an attach
// re-routed the console in the meantime its route stands.
func (b *Broker) registerConsole(shard int, console string, ci consoleInfo, now time.Duration) error {
	if err := b.shards[shard].Handle(console,
		&protocol.Hello{Width: ci.w, Height: ci.h, Caps: ci.caps}, now); err != nil {
		return err
	}
	b.routeMu.Lock()
	if cur, ok := b.consoles[console]; ok && cur.shard == ci.shard {
		ci.shard, ci.registered = shard, true
		b.consoles[console] = ci
	}
	b.routeMu.Unlock()
	return nil
}

// handleConnect is a card insertion at an already-registered console.
func (b *Broker) handleConnect(console, token string, now time.Duration) error {
	b.routeMu.RLock()
	_, known := b.consoles[console]
	b.routeMu.RUnlock()
	if !known {
		return fmt.Errorf("%w: %q", server.ErrUnknownConsole, console)
	}
	return b.attach(console, token, now)
}

// attach is the broker's slow path: authenticate the token, place the
// session (migrating it if placement moved), redirect the console to the
// owning shard, and attach. The wall-clock elapsed time — which on a
// synchronous transport covers the full repaint of the new console — is
// the fleet's reattach-latency histogram, the metric the paper's "seconds"
// hotdesk claim (§1.1) lives or dies by.
func (b *Broker) attach(console, token string, now time.Duration) error {
	b.admin.Lock()
	defer b.admin.Unlock()
	t0 := time.Now()
	user, err := b.auth.Authenticate(token)
	if err != nil {
		b.m.authFailures.Inc()
		if b.log != nil {
			b.log.Warn("broker auth failure", "console", console)
		}
		return err
	}
	b.routeMu.RLock()
	ci := b.consoles[console]
	b.routeMu.RUnlock()
	home, sess := b.home(user)
	hasHome := sess != nil

	target := b.place(user, home, hasHome)
	if hasHome && target != home {
		if err := b.migrate(user, home, target); err != nil {
			return err
		}
	}
	// Redirect the console: evict its registration from the shard it was
	// talking to and replay its geometry to the target.
	if ci.shard != target || !ci.registered {
		if ci.shard != target && ci.registered {
			b.shards[ci.shard].EvictConsole(console)
		}
		if err := b.registerConsole(target, console, ci, now); err != nil {
			return err
		}
	}
	if err := b.shards[target].Attach(console, user, now); err != nil {
		return err
	}
	b.m.attaches.Inc()
	b.m.reattach.Observe(time.Since(t0))
	b.rollup()
	if b.log != nil {
		b.log.Info("fleet attach", "user", user, "console", console, "shard", target,
			"session", b.shards[target].SessionByUser(user).ID, "migrated", hasHome && target != home)
	}
	return nil
}

// place picks the shard for a user's session. Callers hold b.admin.
func (b *Broker) place(user string, home int, hasHome bool) int {
	switch b.policy {
	case RouteLeastLoaded:
		min := 0
		for i := 1; i < len(b.shards); i++ {
			if b.shards[i].SessionCount() < b.shards[min].SessionCount() {
				min = i
			}
		}
		if !hasHome {
			return min
		}
		if b.shards[home].SessionCount()-b.shards[min].SessionCount() >= DefaultMigrateSlack {
			return min
		}
		return home
	default: // RouteHash
		if hasHome {
			return home
		}
		return int(fnv1a(user) % uint32(len(b.shards)))
	}
}

// migrate moves a user's session between shards: quiesce and snapshot on
// the source (ExportSession), replay on the target (ImportSession). The
// console redirect happens in the caller's attach step. Callers hold
// b.admin.
func (b *Broker) migrate(user string, from, to int) error {
	sn, err := b.shards[from].ExportSession(user)
	if err != nil {
		return fmt.Errorf("broker: export %q from shard %d: %w", user, from, err)
	}
	if err := b.shards[to].ImportSession(sn); err != nil {
		// Put the session back rather than lose the user's desktop.
		if rerr := b.shards[from].ImportSession(sn); rerr != nil {
			return fmt.Errorf("broker: import %q into shard %d failed (%v) and restore failed: %w",
				user, to, err, rerr)
		}
		return fmt.Errorf("broker: import %q into shard %d: %w", user, to, err)
	}
	b.m.migrations.Inc()
	b.rollup()
	if b.log != nil {
		b.log.Info("session migrated", "user", user, "session", sn.ID,
			"from", from, "to", to, "last_seq", sn.LastSeq)
	}
	return nil
}

// MigrateUser forcibly moves a user's session to a shard and, when a
// console is displaying it, redirects the console live: the console keeps
// its session ID, the target encoder resumes the sequence numbering, and
// the repaint regenerates the screen — the §1.1 hotdesk, server-initiated.
func (b *Broker) MigrateUser(user string, to int, now time.Duration) error {
	if to < 0 || to >= len(b.shards) {
		return fmt.Errorf("%w: %d", ErrBadShard, to)
	}
	b.admin.Lock()
	defer b.admin.Unlock()
	home, sess := b.home(user)
	if sess == nil {
		return fmt.Errorf("broker: no session for user %q", user)
	}
	if home == to {
		return nil
	}
	// Remember where the session was displayed before the export detaches it.
	console := sess.Console
	if err := b.migrate(user, home, to); err != nil {
		return err
	}
	if console == "" {
		return nil
	}
	b.routeMu.RLock()
	ci := b.consoles[console]
	b.routeMu.RUnlock()
	b.shards[home].EvictConsole(console)
	if err := b.registerConsole(to, console, ci, now); err != nil {
		return err
	}
	return b.shards[to].Attach(console, user, now)
}

// Detach removes a user's session from its console, wherever it lives.
func (b *Broker) Detach(user string) error {
	shard, sess := b.home(user)
	if sess == nil {
		return fmt.Errorf("broker: no session for user %q", user)
	}
	return b.shards[shard].Detach(user)
}

// Terminate destroys a user's session, wherever it lives.
func (b *Broker) Terminate(user string) error {
	b.admin.Lock()
	defer b.admin.Unlock()
	shard, sess := b.home(user)
	if sess == nil {
		return fmt.Errorf("broker: no session for user %q", user)
	}
	if err := b.shards[shard].Terminate(user); err != nil {
		return err
	}
	b.rollup()
	return nil
}

// SessionOf reports the session a console is displaying (nil if none) —
// part of the transport-facing surface shared with a single server.
func (b *Broker) SessionOf(console string) *server.Session {
	b.routeMu.RLock()
	ci, ok := b.consoles[console]
	b.routeMu.RUnlock()
	if !ok {
		return nil
	}
	return b.shards[ci.shard].SessionOf(console)
}

// SessionByUser reports a user's session, wherever it lives (nil if none).
func (b *Broker) SessionByUser(user string) *server.Session {
	_, sess := b.home(user)
	return sess
}

// Tick drives self-clocked applications on every shard.
func (b *Broker) Tick(now time.Duration) error {
	var firstErr error
	for _, sh := range b.shards {
		if err := sh.Tick(now); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PumpFlows services every shard's flow governors at now and reports the
// earliest instant any shard has more paced traffic due.
func (b *Broker) PumpFlows(now time.Duration) (next time.Duration, pending bool, err error) {
	var firstErr error
	for _, sh := range b.shards {
		n, p, perr := sh.PumpFlows(now)
		if perr != nil && firstErr == nil {
			firstErr = perr
		}
		if p && (!pending || n < next) {
			next, pending = n, true
		}
	}
	return next, pending, firstErr
}

// FlowPending reports whether any shard has a paced debt that only
// PumpFlows will pay (the UDP endpoint schedules its pumps off this).
func (b *Broker) FlowPending() bool {
	return slices.ContainsFunc(b.shards, (*server.Server).FlowPending)
}

// Rollup refreshes the per-shard session gauges from live shard state —
// exposed so scrapes and tests can force a consistent view.
func (b *Broker) Rollup() { b.rollup() }

func (b *Broker) rollup() {
	for i, sh := range b.shards {
		b.m.shardSessions[i].Set(int64(sh.SessionCount()))
	}
}
