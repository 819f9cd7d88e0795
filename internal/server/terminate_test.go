package server

import (
	"strings"
	"testing"
	"time"

	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// TestTerminateEvictsObservability is the cardinality-leak regression test:
// a terminated session must take its labeled input-to-paint histogram and
// its flight-recorder ring with it. Before Terminate existed, a server
// that outlived many logins accumulated one histogram and one event ring
// per user forever.
func TestTerminateEvictsObservability(t *testing.T) {
	tr := newMemTransport()
	kit := telemetry.New(obs.DomainWall)
	reg, rec := kit.Registry, kit.Flight
	s := newTestServer(tr, WithTelemetry(kit))

	if err := s.Handle("desk-1", hello(64, 32, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if sess == nil {
		t.Fatal("no session for alice")
	}
	if err := s.Handle("desk-1", &protocol.KeyEvent{Code: 'a', Down: true}, 0); err != nil {
		t.Fatal(err)
	}

	name := `slim_input_to_paint_seconds{session="alice"}`
	if _, ok := reg.Snapshot().Histograms[name]; !ok {
		t.Fatalf("labeled histogram %q not registered while session live", name)
	}
	if evs := rec.Events(sess.ID, 0); len(evs) == 0 {
		t.Fatal("no flight events recorded while session live")
	}

	if err := s.Terminate("alice"); err != nil {
		t.Fatal(err)
	}

	if _, ok := reg.Snapshot().Histograms[name]; ok {
		t.Errorf("labeled histogram %q survived Terminate", name)
	}
	if ids := rec.SessionIDs(); len(ids) != 0 {
		t.Errorf("flight rings survived Terminate: %v", ids)
	}
	if got := reg.Snapshot().Gauges["slim_sessions"]; got != 0 {
		t.Errorf("slim_sessions = %d after Terminate, want 0", got)
	}
	if s.SessionByUser("alice") != nil {
		t.Error("session still resolvable after Terminate")
	}
	// The console must have been told the session went away.
	msgs := tr.msgsTo(t, "desk-1")
	var detached bool
	for _, m := range msgs {
		if d, ok := m.(*protocol.SessionDetach); ok && d.SessionID == sess.ID {
			detached = true
		}
	}
	if !detached {
		t.Error("no SessionDetach sent to the console on Terminate")
	}

	if err := s.Terminate("alice"); err == nil {
		t.Error("second Terminate should report no session")
	}

	// A fresh login after Terminate starts a brand-new session.
	if err := s.Handle("desk-1", hello(64, 32, "card-alice"), time.Second); err != nil {
		t.Fatal(err)
	}
	fresh := s.SessionByUser("alice")
	if fresh == nil || fresh.ID == sess.ID {
		t.Fatalf("relogin session = %+v, want a new session ID", fresh)
	}
}

// sessionLabeled reports the metric names in snap carrying the session
// label — the generic enumeration the eviction regression scans, so any
// future per-session series is covered without listing it here.
func sessionLabeled(snap obs.Snapshot, user string) []string {
	label := `session="` + user + `"`
	var names []string
	for name := range snap.Counters {
		if strings.Contains(name, label) {
			names = append(names, name)
		}
	}
	for name := range snap.Gauges {
		if strings.Contains(name, label) {
			names = append(names, name)
		}
	}
	for name := range snap.Histograms {
		if strings.Contains(name, label) {
			names = append(names, name)
		}
	}
	return names
}

// TestTerminateEvictsAllSessionSeries is the generic cardinality-leak
// regression: with every per-session subsystem live — labeled
// input-to-paint histogram, flow-governor gauges, SLO state, path
// estimators — Terminate must leave *zero* series carrying the session
// label, enumerated generically so series added later fail this test
// instead of leaking, and the kit's shared per-session stores enumerated
// through SessionStores so a store added later without eviction fails
// here too. ExportSession, the other teardown caller, must take the
// per-server series (the server publishes into a registry of its own, as a
// broker's shards do) and leave the stores shards share: the session lives
// on under the same ID on the importing server.
func TestTerminateEvictsAllSessionSeries(t *testing.T) {
	for _, tc := range []struct {
		name       string
		close      func(*Server) error
		keepShared bool
	}{
		{"terminate", func(s *Server) error { return s.Terminate("alice") }, false},
		{"export", func(s *Server) error { _, err := s.ExportSession("alice", 0); return err }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newMemTransport()
			fleet := telemetry.New(obs.DomainWall)
			fleet.NetQual.SetEnabled(true)
			shard := fleet.Shard() // shared stores, private registry
			reg, shared := shard.Registry, fleet.Registry
			s := New(tr, func(user string, w, h int) Application { return NewTerminal(w, h) },
				WithTelemetry(shard), WithFlowControl(flow.Config{}))
			s.Auth.Register("card-alice", "alice")

			if err := s.Handle("desk-1", hello(64, 32, "card-alice"), 0); err != nil {
				t.Fatal(err)
			}
			sess := s.SessionByUser("alice")
			if sess == nil {
				t.Fatal("no session for alice")
			}
			if err := s.Handle("desk-1", &protocol.KeyEvent{Code: 'a', Down: true}, 0); err != nil {
				t.Fatal(err)
			}

			if live := sessionLabeled(reg.Snapshot(), "alice"); len(live) < 2 {
				t.Fatalf("expected per-server series from itp and flow while live, got %v", live)
			}
			sharedLive := sessionLabeled(shared.Snapshot(), "alice")
			var netqualLive bool
			for _, name := range sharedLive {
				if strings.HasPrefix(name, "slim_netqual_") {
					netqualLive = true
				}
			}
			if len(sharedLive) < 2 || !netqualLive {
				t.Fatalf("expected slo and slim_netqual_* series while live, got %v", sharedLive)
			}
			for _, st := range fleet.SessionStores() {
				if ids := st.SessionIDs(); len(ids) != 1 || ids[0] != sess.ID {
					t.Fatalf("%T holds %v while the session is live, want [%d]", st, ids, sess.ID)
				}
			}

			if err := tc.close(s); err != nil {
				t.Fatal(err)
			}

			if leaked := sessionLabeled(reg.Snapshot(), "alice"); len(leaked) != 0 {
				t.Errorf("per-server series survived %s: %v", tc.name, leaked)
			}
			if got := reg.Snapshot().Gauges["slim_sessions"]; got != 0 {
				t.Errorf("slim_sessions = %d after %s, want 0", got, tc.name)
			}
			want := 0
			if tc.keepShared {
				want = 1
				if kept := sessionLabeled(shared.Snapshot(), "alice"); len(kept) != len(sharedLive) {
					t.Errorf("shared series after export = %v, want all of %v kept", kept, sharedLive)
				}
			} else if leaked := sessionLabeled(shared.Snapshot(), "alice"); len(leaked) != 0 {
				t.Errorf("shared per-session series survived Terminate: %v", leaked)
			}
			for _, st := range fleet.SessionStores() {
				if ids := st.SessionIDs(); len(ids) != want {
					t.Errorf("%T after %s holds %v, want %d sessions", st, tc.name, ids, want)
				}
			}
		})
	}
}
