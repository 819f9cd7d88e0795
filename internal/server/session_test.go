package server

import (
	"bytes"
	"os"
	"testing"

	"slim/internal/fb"
	"slim/internal/flow"
	"slim/internal/obs"
	"slim/internal/obs/telemetry"
	"slim/internal/protocol"
)

// typeAt badges card in at console and types text there.
func typeAt(t *testing.T, s *Server, console string, w, h int, card, text string) {
	t.Helper()
	if err := s.Handle(console, hello(w, h, card), 0); err != nil {
		t.Fatal(err)
	}
	for _, ch := range text {
		if err := s.Handle(console, &protocol.KeyEvent{Code: uint16(ch), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// firstDisplaySeq reports the lowest display sequence number sent to a
// console (0 if none).
func firstDisplaySeq(t *testing.T, tr *memTransport, console string) uint32 {
	t.Helper()
	var first uint32
	for _, wire := range tr.sent[console] {
		seq, msg, _, err := protocol.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Type().IsDisplay() && (first == 0 || seq < first) {
			first = seq
		}
	}
	return first
}

// origin is one way a session comes to exist on a server: a first login,
// a migration import, or a state-file load. restored marks the two that
// carry a snapshot.
type origin struct {
	name     string
	restored bool
	create   func(*Server) error
}

// aliceOrigins types text into alice's session on a w×h console of a
// source server, and returns that session, its snapshot, and the three
// origins that make it again on another server.
func aliceOrigins(t *testing.T, w, h int, text string) (*Session, *SessionSnapshot, []origin) {
	t.Helper()
	src := newTestServer(newMemTransport())
	typeAt(t, src, "c-src", w, h, "card-alice", text)
	want := src.SessionByUser("alice")
	sn := want.snapshot()
	var state bytes.Buffer
	if err := src.SaveSessions(&state); err != nil {
		t.Fatal(err)
	}
	return want, sn, []origin{
		{"attach", false, func(s *Server) error { typeAt(t, s, "c-src", w, h, "card-alice", text); return nil }},
		{"import", true, func(s *Server) error { return s.ImportSession(sn) }},
		{"load", true, func(s *Server) error { return s.LoadSessions(bytes.NewReader(state.Bytes())) }},
	}
}

// TestSessionLifecycleParity pins that a session is the same object
// however it came to exist: a first login, a migration import, and a state
// file load all go through the one constructor, so each has its governor
// publishing, every instrument resolved, the application and pixels where
// the user left them, and the sequence numbering carried on.
func TestSessionLifecycleParity(t *testing.T) {
	const w, h, text = 96, 64, "parity\nline two"
	want, sn, origins := aliceOrigins(t, w, h, text)
	wantCol, wantRow := want.App.(*Terminal).Cursor()
	for _, origin := range origins {
		t.Run(origin.name+"/governed", func(t *testing.T) {
			tr := newMemTransport()
			kit := telemetry.New(obs.DomainWall)
			reg := kit.Registry
			s := newTestServer(tr, WithTelemetry(kit), WithFlowControl(flow.Config{}))
			if err := origin.create(s); err != nil {
				t.Fatal(err)
			}
			sess := s.SessionByUser("alice")
			if sess == nil || sess.ID != sn.ID {
				t.Fatalf("session = %+v, want ID %d", sess, sn.ID)
			}

			if sess.Governor() == nil {
				t.Fatal("session without a governor")
			}
			if _, ok := reg.Snapshot().Gauges[`slim_flow_grant_bps{session="alice"}`]; !ok {
				t.Error("governor gauges not published")
			}

			if tel := sess.Telemetry(); tel.Flight == nil || tel.SLO == nil || tel.Path == nil ||
				tel.InputToPaint == nil || sess.Encoder.Metrics == nil || sess.Encoder.Flight == nil {
				t.Errorf("unresolved instruments on %+v", sess)
			}
			if _, ok := reg.Snapshot().Histograms[`slim_input_to_paint_seconds{session="alice"}`]; !ok {
				t.Error("input-to-paint histogram not published")
			}
			if got := reg.Snapshot().Gauges["slim_sessions"]; got != 1 {
				t.Errorf("slim_sessions = %d, want 1", got)
			}

			if !sess.Encoder.FB.Equal(want.Encoder.FB) {
				t.Error("frame buffer differs from the original session's")
			}
			if col, row := sess.App.(*Terminal).Cursor(); col != wantCol || row != wantRow {
				t.Errorf("cursor = %d,%d want %d,%d", col, row, wantCol, wantRow)
			}
			if got := sess.Encoder.LastSeq(); got != sn.LastSeq {
				t.Fatalf("encoder at seq %d, want %d", got, sn.LastSeq)
			}
			if !origin.restored {
				return
			}
			if sess.Console != "" {
				t.Errorf("restored session bound to console %q", sess.Console)
			}
			if err := s.Handle("c-dst", hello(w, h, "card-alice"), 0); err != nil {
				t.Fatal(err)
			}
			if got := firstDisplaySeq(t, tr, "c-dst"); got != sn.LastSeq+1 {
				t.Errorf("first display seq after restore = %d, want LastSeq+1 = %d", got, sn.LastSeq+1)
			}
		})
	}
}

// TestServerWithNoOptionsIsTheShippedServer: a server built with no
// options runs what every binary runs. However a session came to exist,
// it has a governor; and a console's Hello alone decides the codec: one
// advertising CapCachePaint negotiates gen-2, one without it gets gen-1
// and no CACHE_PAINT on its wire.
func TestServerWithNoOptionsIsTheShippedServer(t *testing.T) {
	_, _, origins := aliceOrigins(t, 96, 64, "shipped")
	for _, origin := range origins {
		t.Run(origin.name, func(t *testing.T) {
			s := newTestServer(newMemTransport())
			if err := origin.create(s); err != nil {
				t.Fatal(err)
			}
			if sess := s.SessionByUser("alice"); sess == nil {
				t.Fatal("no session for alice")
			} else if sess.Governor() == nil {
				t.Fatal("the session has no governor")
			}
		})
	}
	for _, c := range []struct {
		name string
		caps uint16
	}{{"gen2", protocol.CapCachePaint}, {"gen1", 0}} {
		t.Run(c.name, func(t *testing.T) {
			tr := newMemTransport()
			s := newTestServer(tr)
			hi := hello(64, 64, "card-alice")
			hi.Caps = c.caps
			if err := s.Handle("c1", hi, 0); err != nil {
				t.Fatal(err)
			}
			sess := s.SessionByUser("alice")
			gen2 := c.caps != 0
			if sess.Encoder.Codec2Enabled() != gen2 {
				t.Fatalf("codec2 enabled = %v for a console with caps %#x", sess.Encoder.Codec2Enabled(), c.caps)
			}
			driveOps(t, s, sess, repeatedContentOps())
			if n := countCachePaintMsgs(tr.msgsTo(t, "c1")); gen2 && n == 0 {
				t.Error("the gen-2 console's stream carried no CACHE_PAINT for repeated content")
			} else if !gen2 && n != 0 {
				t.Errorf("the gen-1 console's stream carried %d CACHE_PAINTs", n)
			}
		})
	}
}

// TestLoadSessionsReadsParentFormat loads a state file written by the
// last commit whose state file predates SessionSnapshot (Pixels []uint32,
// no LastSeq). testdata/gen.go wrote it and says how to regenerate it; the
// drive there is repeated here to know what the file must restore to.
func TestLoadSessionsReadsParentFormat(t *testing.T) {
	f, err := os.Open("testdata/state_34ac174.gob")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := newMemTransport()
	s := newTestServer(tr, WithTelemetry(telemetry.New(obs.DomainWall)), WithFlowControl(flow.Config{}))
	s.Auth.Register("card-carol", "carol")
	if err := s.LoadSessions(f); err != nil {
		t.Fatal(err)
	}

	ref := newTestServer(newMemTransport())
	typeAt(t, ref, "c1", 96, 64, "card-alice", "parent format\nline two")
	typeAt(t, ref, "c2", 64, 32, "card-bob", "")
	for _, user := range []string{"alice", "bob"} {
		want, got := ref.SessionByUser(user), s.SessionByUser(user)
		if got == nil || got.ID != want.ID {
			t.Fatalf("%s restored as %+v, want ID %d", user, got, want.ID)
		}
		if !got.Encoder.FB.Equal(want.Encoder.FB) {
			t.Errorf("%s: frame buffer not restored", user)
		}
		wc, wr := want.App.(*Terminal).Cursor()
		if c, r := got.App.(*Terminal).Cursor(); c != wc || r != wr {
			t.Errorf("%s: cursor = %d,%d want %d,%d", user, c, r, wc, wr)
		}
		if got.Encoder.LastSeq() != 0 {
			t.Errorf("%s: LastSeq = %d from a file that carries none", user, got.Encoder.LastSeq())
		}
		if got.Governor() == nil {
			t.Errorf("%s: restored without a governor", user)
		}
	}
	// The ID counter came back too, and the restored pixels repaint.
	if err := s.Handle("c9", hello(96, 64, "card-carol"), 0); err != nil {
		t.Fatal(err)
	}
	if carol := s.SessionByUser("carol"); carol.ID != 3 {
		t.Errorf("first new session after load has ID %d, want 3", carol.ID)
	}
	if err := s.Handle("c9", &protocol.SessionConnect{Token: "card-alice"}, 0); err != nil {
		t.Fatal(err)
	}
	screen := fb.New(96, 64)
	tr.renderTo(t, "c9", screen)
	if !screen.Equal(ref.SessionByUser("alice").Encoder.FB) {
		t.Error("repaint from the loaded state diverged")
	}
}
