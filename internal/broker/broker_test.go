package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
	"slim/internal/server"
)

// fleetTransport collects datagrams per console; every shard in a test
// fleet shares one, exactly as they share one UDP socket in slimd -shards.
type fleetTransport struct {
	mu   sync.Mutex
	sent map[string][][]byte
}

func newFleetTransport() *fleetTransport {
	return &fleetTransport{sent: make(map[string][][]byte)}
}

func (f *fleetTransport) Send(console string, wire []byte) error {
	f.mu.Lock()
	f.sent[console] = append(f.sent[console], append([]byte(nil), wire...))
	f.mu.Unlock()
	return nil
}

func (f *fleetTransport) count(console string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sent[console])
}

// newTestFleet builds a broker over shards fresh terminal servers sharing
// one transport and one hermetic telemetry kit, as NewBroker's shards do.
func newTestFleet(t testing.TB, shards int, policy Policy, opts ...server.Option) (*Broker, *fleetTransport, *obs.Registry) {
	t.Helper()
	tr := newFleetTransport()
	fleet := telemetry.New(obs.DomainWall)
	reg := fleet.Registry
	b, err := New(Config{
		Shards:   shards,
		Policy:   policy,
		Registry: reg,
		NewShard: func(i int) *server.Server {
			return server.New(tr,
				func(user string, w, h int) server.Application { return server.NewTerminal(w, h) },
				append([]server.Option{server.WithTelemetry(fleet),
					server.WithSessionIDBase(uint32(i) * ShardIDSpace)}, opts...)...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, tr, reg
}

// checkInvariants asserts the session gauges agree with live shard state:
// the shards' one slim_sessions count and the broker's per-shard rollup
// match per-shard counts (the soak's no-leak parity check).
func checkInvariants(t *testing.T, b *Broker, reg *obs.Registry) {
	t.Helper()
	total := 0
	for i := 0; i < b.Shards(); i++ {
		total += b.Shard(i).SessionCount()
	}
	if got := b.Sessions(); got != total {
		t.Fatalf("Sessions() = %d, shards sum to %d", got, total)
	}
	b.Rollup()
	snap := reg.Snapshot()
	if got := snap.Gauges["slim_sessions"]; got != int64(total) {
		t.Fatalf("slim_sessions = %d, want %d", got, total)
	}
	for i := 0; i < b.Shards(); i++ {
		name := fmt.Sprintf(`slim_broker_shard_sessions{shard="%d"}`, i)
		if got := snap.Gauges[name]; got != int64(b.Shard(i).SessionCount()) {
			t.Fatalf("shard %d gauge = %d, want %d", i, got, b.Shard(i).SessionCount())
		}
	}
}

// TestBrokerAttachRouteEvict is the attach/route/evict property test: a
// deterministic churn of boots, card insertions, hotdesks, detaches, and
// terminates across a 3-shard fleet, with the routing invariants asserted
// after every step.
func TestBrokerAttachRouteEvict(t *testing.T) {
	const (
		shards   = 3
		users    = 8
		consoles = 12
		steps    = 400
	)
	b, _, reg := newTestFleet(t, shards, RouteHash)
	for u := 0; u < users; u++ {
		b.Register(fmt.Sprintf("card-%d", u), fmt.Sprintf("user-%d", u))
	}
	rng := rand.New(rand.NewSource(42))
	now := time.Duration(0)
	for step := 0; step < steps; step++ {
		now += time.Millisecond
		u := rng.Intn(users)
		con := fmt.Sprintf("desk-%d", rng.Intn(consoles))
		switch rng.Intn(10) {
		case 0, 1, 2: // boot with card: the common path
			err := b.Handle(con, &protocol.Hello{
				Width: 64, Height: 48, CardToken: fmt.Sprintf("card-%d", u)}, now)
			if err != nil {
				t.Fatalf("step %d: hello: %v", step, err)
			}
		case 3, 4, 5: // card insertion at a booted console (hotdesk)
			if err := b.Handle(con, &protocol.Hello{Width: 64, Height: 48}, now); err != nil {
				t.Fatalf("step %d: bare hello: %v", step, err)
			}
			err := b.Handle(con, &protocol.SessionConnect{
				Token: fmt.Sprintf("card-%d", u)}, now)
			if err != nil {
				t.Fatalf("step %d: connect: %v", step, err)
			}
		case 6: // detach
			user := fmt.Sprintf("user-%d", u)
			if _, ok := b.Locate(user); ok {
				if err := b.Detach(user); err != nil {
					t.Fatalf("step %d: detach: %v", step, err)
				}
			}
		case 7: // terminate
			user := fmt.Sprintf("user-%d", u)
			if _, ok := b.Locate(user); ok {
				if err := b.Terminate(user); err != nil {
					t.Fatalf("step %d: terminate: %v", step, err)
				}
				if _, ok := b.Locate(user); ok {
					t.Fatalf("step %d: terminated user still routed", step)
				}
			}
		case 8, 9: // input at a console that may or may not be live
			err := b.Handle(con, &protocol.KeyEvent{Code: 'x', Down: true}, now)
			if err != nil {
				// Unknown consoles and sessionless consoles are the only
				// acceptable failures under churn.
				continue
			}
		}
		checkInvariants(t, b, reg)
	}
	// Bad token: rejected and counted, no state change.
	before := b.Sessions()
	if err := b.Handle("desk-0", &protocol.SessionConnect{Token: "forged"}, now); err == nil {
		t.Fatal("forged token attached")
	}
	if got := b.Sessions(); got != before {
		t.Fatalf("failed auth changed session count: %d -> %d", before, got)
	}
	if got := reg.Snapshot().Counters["slim_broker_auth_failures_total"]; got == 0 {
		t.Error("auth failure not counted")
	}
}

// TestBrokerHashRoutingIsStable: under RouteHash a user's hotdesks never
// migrate the session — the same shard hosts it for life.
func TestBrokerHashRoutingIsStable(t *testing.T) {
	b, _, reg := newTestFleet(t, 4, RouteHash)
	b.Register("card-a", "alice")
	if err := b.Handle("desk-1", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
		t.Fatal(err)
	}
	home, ok := b.Locate("alice")
	if !ok {
		t.Fatal("attach did not route alice")
	}
	for i := 2; i < 8; i++ {
		desk := fmt.Sprintf("desk-%d", i)
		if err := b.Handle(desk, &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
			t.Fatal(err)
		}
		if got, _ := b.Locate("alice"); got != home {
			t.Fatalf("hash routing moved alice %d -> %d on hotdesk", home, got)
		}
	}
	if got := reg.Snapshot().Counters["slim_broker_migrations_total"]; got != 0 {
		t.Errorf("hash routing performed %d migrations", got)
	}
}

// TestBrokerLeastLoadedRebalances: a skewed fleet migrates the hotdesking
// user's session to the emptiest shard, and the console follows.
func TestBrokerLeastLoadedRebalances(t *testing.T) {
	b, _, reg := newTestFleet(t, 2, RouteLeastLoaded)
	for i := 0; i < 4; i++ {
		tok, user := fmt.Sprintf("card-%d", i), fmt.Sprintf("user-%d", i)
		b.Register(tok, user)
		desk := fmt.Sprintf("desk-%d", i)
		if err := b.Handle(desk, &protocol.Hello{Width: 64, Height: 48, CardToken: tok}, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Least-loaded placement alternates, so the fleet is balanced 2/2.
	// Terminate both of shard-1's residents' neighbors... simpler: skew by
	// adding 2 more users, then terminating all of shard 1's.
	s0, s1 := b.Shard(0).SessionCount(), b.Shard(1).SessionCount()
	if s0 != 2 || s1 != 2 {
		t.Fatalf("expected balanced 2/2 placement, got %d/%d", s0, s1)
	}
	// Empty shard 1 except user-1 (wherever users actually live, terminate
	// everyone on shard 1 but one resident of shard 0 stays put).
	var victim string
	for u := 0; u < 4; u++ {
		user := fmt.Sprintf("user-%d", u)
		if shard, _ := b.Locate(user); shard == 0 {
			if victim == "" {
				victim = user // the one who will hotdesk into a migration
				continue
			}
		} else if err := b.Terminate(user); err != nil {
			t.Fatal(err)
		}
	}
	// Now shard 0 has 2 sessions, shard 1 has 0: DefaultMigrateSlack reached. The
	// victim hotdesks to a new desk and must come out on shard 1.
	if err := b.Handle("desk-new", &protocol.Hello{Width: 64, Height: 48}, 0); err != nil {
		t.Fatal(err)
	}
	tok := "card-" + victim[len("user-"):]
	if err := b.Handle("desk-new", &protocol.SessionConnect{Token: tok}, 0); err != nil {
		t.Fatal(err)
	}
	if shard, _ := b.Locate(victim); shard != 1 {
		t.Fatalf("hotdesk into a skewed fleet left %s on shard %d, want 1", victim, shard)
	}
	if got := reg.Snapshot().Counters["slim_broker_migrations_total"]; got != 1 {
		t.Errorf("migrations = %d, want 1", got)
	}
	// The console is live on the new shard: input routes and repaints.
	if err := b.Handle("desk-new", &protocol.KeyEvent{Code: 'k', Down: true}, 0); err != nil {
		t.Fatalf("input after migration: %v", err)
	}
}

// TestBrokerMigrateUserLive: a server-initiated migration moves the
// session and redirects the displaying console without the console doing
// anything; the session keeps its ID.
func TestBrokerMigrateUserLive(t *testing.T) {
	b, tr, _ := newTestFleet(t, 2, RouteHash)
	b.Register("card-a", "alice")
	if err := b.Handle("desk-1", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
		t.Fatal(err)
	}
	home, _ := b.Locate("alice")
	idBefore := b.SessionByUser("alice").ID
	sentBefore := tr.count("desk-1")
	if err := b.MigrateUser("alice", 1-home, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Locate("alice"); got != 1-home {
		t.Fatalf("MigrateUser left alice on %d", got)
	}
	sess := b.SessionByUser("alice")
	if sess == nil || sess.ID != idBefore {
		t.Fatalf("migration changed the session ID: %v, want %d", sess, idBefore)
	}
	if sess.Console != "desk-1" {
		t.Fatalf("console did not follow the migration: displaying on %q", sess.Console)
	}
	if tr.count("desk-1") == sentBefore {
		t.Error("migration redirect sent no repaint to the console")
	}
	// Migrating to the current shard is a no-op; out of range is an error.
	if err := b.MigrateUser("alice", 1-home, 0); err != nil {
		t.Fatalf("no-op migration errored: %v", err)
	}
	if err := b.MigrateUser("alice", 99, 0); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// TestBrokerClosedRejects: a closed broker refuses new messages but leaves
// shard state intact (sessions persist server side by design).
func TestBrokerClosedRejects(t *testing.T) {
	b, _, _ := newTestFleet(t, 2, RouteHash)
	b.Register("card-a", "alice")
	if err := b.Handle("desk-1", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle("desk-1", &protocol.KeyEvent{Code: 'x', Down: true}, 0); err != ErrClosed {
		t.Fatalf("closed broker error = %v, want ErrClosed", err)
	}
	// The datagram path stops too: a Pong from the attached console is
	// neither forwarded nor routed.
	pong := protocol.Encode(nil, 1, &protocol.Pong{Nonce: 7})
	if err := b.HandleDatagram("desk-1", pong, 0); err != ErrClosed {
		t.Fatalf("closed broker took a datagram: error = %v, want ErrClosed", err)
	}
	if shard, ok := b.ShardFor("desk-1", pong); ok {
		t.Fatalf("closed broker routes to shard %d", shard)
	}
	if b.Sessions() != 1 {
		t.Error("close destroyed shard sessions")
	}
}

// TestZeroAllocRoute pins the routing hot path at zero allocations: raw
// keystroke datagrams and bandwidth grants resolve their shard without
// touching the heap (alloc-guard runs this).
func TestZeroAllocRoute(t *testing.T) {
	b, _, _ := newTestFleet(t, 4, RouteHash)
	b.Register("card-a", "alice")
	if err := b.Handle("desk-1", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
		t.Fatal(err)
	}
	key := protocol.Encode(nil, 0, &protocol.KeyEvent{Code: 'x', Down: true})
	grant := protocol.Encode(nil, 0, &protocol.BandwidthGrant{
		SessionID: b.SessionByUser("alice").ID, Bps: 1 << 20})

	if n := testing.AllocsPerRun(200, func() {
		if _, ok := b.ShardFor("desk-1", key); !ok {
			t.Fatal("known console failed to route")
		}
	}); n != 0 {
		t.Errorf("ShardFor(keystroke) allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, ok := b.ShardFor("desk-1", grant); !ok {
			t.Fatal("live grant failed to route")
		}
	}); n != 0 {
		t.Errorf("ShardFor(grant) allocates %v per run, want 0", n)
	}
}

// BenchmarkBrokerRoute measures the raw routing decision (bench-guard).
func BenchmarkBrokerRoute(b *testing.B) {
	bro, _, _ := newTestFleet(b, 8, RouteHash)
	bro.Register("card-a", "alice")
	if err := bro.Handle("desk-1", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
		b.Fatal(err)
	}
	key := protocol.Encode(nil, 0, &protocol.KeyEvent{Code: 'x', Down: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bro.ShardFor("desk-1", key); !ok {
			b.Fatal("route miss")
		}
	}
}

// BenchmarkBrokerKeystroke measures the full datagram path through the
// broker into a shard: route, decode, app echo, encode, send.
func BenchmarkBrokerKeystroke(b *testing.B) {
	bro, _, _ := newTestFleet(b, 8, RouteHash)
	bro.Register("card-a", "alice")
	if err := bro.Handle("desk-1", &protocol.Hello{Width: 128, Height: 96, CardToken: "card-a"}, 0); err != nil {
		b.Fatal(err)
	}
	key := protocol.Encode(nil, 0, &protocol.KeyEvent{Code: 'x', Down: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bro.HandleDatagram("desk-1", key, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBrokerForwardsConsoleCaps: the broker synthesizes Hellos when it
// redirects consoles between shards, and those must carry the console's
// advertised capability bits — otherwise a gen-2 console fronted by a
// broker silently never negotiates the tile cache.
func TestBrokerForwardsConsoleCaps(t *testing.T) {
	b, _, _ := newTestFleet(t, 2, RouteLeastLoaded)
	b.Register("card-a", "alice")
	b.Register("card-b", "bob")

	encoder := func(user string) *core.Encoder {
		t.Helper()
		shard, ok := b.Locate(user)
		if !ok {
			t.Fatalf("no shard hosts %s", user)
		}
		sess := b.Shard(shard).SessionByUser(user)
		if sess == nil {
			t.Fatalf("shard %d has no session for %s", shard, user)
		}
		return sess.Encoder
	}

	// Card-carrying Hello with the capability: the attach path's redirect
	// Hello must preserve it.
	if err := b.Handle("g2", &protocol.Hello{Width: 64, Height: 64, CardToken: "card-a", Caps: protocol.CapCachePaint}, 0); err != nil {
		t.Fatal(err)
	}
	if !encoder("alice").Codec2Enabled() {
		t.Error("capability lost on the broker's attach redirect")
	}

	// Skew the fleet by DefaultMigrateSlack onto alice's shard: carol lands
	// on the emptier shard and is moved next to alice, so the hotdesk below
	// migrates alice's session rather than reattaching it in place.
	b.Register("card-c", "carol")
	if err := b.Handle("g1c", &protocol.Hello{Width: 64, Height: 64, CardToken: "card-c"}, 0); err != nil {
		t.Fatal(err)
	}
	home, _ := b.Locate("alice")
	if err := b.MigrateUser("carol", home, 0); err != nil {
		t.Fatal(err)
	}

	// Bare Hello then SessionConnect (hotdesk): both broker-synthesized
	// Hellos must preserve what the console advertised, across the move.
	if err := b.Handle("g2b", &protocol.Hello{Width: 64, Height: 64, Caps: protocol.CapCachePaint}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Handle("g2b", &protocol.SessionConnect{Token: "card-a"}, 0); err != nil {
		t.Fatal(err)
	}
	if shard, _ := b.Locate("alice"); shard == home {
		t.Fatalf("hotdesk into a fleet skewed by %d left alice on shard %d", DefaultMigrateSlack, home)
	}
	if !encoder("alice").Codec2Enabled() {
		t.Error("capability lost on the broker's migrating hotdesk redirect")
	}

	// A legacy console stays gen-1 on the same fleet.
	if err := b.Handle("g1", &protocol.Hello{Width: 64, Height: 64, CardToken: "card-b"}, 0); err != nil {
		t.Fatal(err)
	}
	if encoder("bob").Codec2Enabled() {
		t.Error("legacy console negotiated codec2 through the broker")
	}
}

// TestBrokerLookupsRaceMigration: with no user or session table of its
// own, the broker answers Locate and SessionByUser by asking the shards,
// while routing, migration and detaching run on other goroutines. Run
// under -race; afterwards the one session is where the last migration put
// it and every gauge agrees.
func TestBrokerLookupsRaceMigration(t *testing.T) {
	b, _, reg := newTestFleet(t, 2, RouteHash)
	b.Register("card-a", "alice")
	if err := b.Handle("desk-1", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
		t.Fatal(err)
	}
	key := protocol.Encode(nil, 0, &protocol.KeyEvent{Code: 'x', Down: true})
	const moves = 20
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, work := range []func(){
		func() { b.Locate("alice") },
		func() {
			if sess := b.SessionByUser("alice"); sess != nil && sess.User != "alice" {
				t.Errorf("SessionByUser(alice) returned %q's session", sess.User)
			}
		},
		func() { _ = b.HandleDatagram("desk-1", key, 0) }, // no session mid-move is an answer
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					work()
				}
			}
		}()
	}
	home, _ := b.Locate("alice")
	for i := 0; i < moves; i++ {
		home = 1 - home
		if err := b.MigrateUser("alice", home, 0); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if got, ok := b.Locate("alice"); !ok || got != home {
		t.Fatalf("Locate(alice) = %d/%v after the migrations, want %d", got, ok, home)
	}
	if sess := b.SessionByUser("alice"); sess == nil || sess.Console != "desk-1" {
		t.Fatalf("alice's session after the migrations: %+v, want it on desk-1", sess)
	}
	checkInvariants(t, b, reg)
}
