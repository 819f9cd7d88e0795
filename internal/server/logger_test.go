package server

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"

	"slim/internal/obs"
	"slim/internal/obs/telemetry"
)

// TestWithLoggerLifecycle: a server built with WithLogger reports attach,
// auth failure, detach, and terminate as structured records; a server
// without one stays silent and never dereferences a nil logger.
func TestWithLoggerLifecycle(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := newMemTransport()
	s := New(tr, func(user string, w, h int) Application { return NewTerminal(w, h) },
		WithLogger(logger),
		WithTelemetry(telemetry.New(obs.DomainWall)))
	s.Auth.Register("card-alice", "alice")

	if err := s.Handle("c1", hello(320, 200, "card-evil"), 0); err == nil {
		t.Fatal("bad card accepted")
	}
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Detach("alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Terminate("alice"); err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{
		"auth failure", "session attached", "session detached",
		"session terminated", "user=alice", "console=c1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	// Detach preserved the session, so the second attach must be flagged
	// as a reconnect.
	if !strings.Contains(out, "reconnect=true") {
		t.Errorf("re-attach not logged as reconnect:\n%s", out)
	}

	// Nil logger: the same flow must not panic.
	tr2 := newMemTransport()
	s2 := newTestServer(tr2)
	if err := s2.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s2.Terminate("alice"); err != nil {
		t.Fatal(err)
	}
}
