package slim

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestContextCancelClosesUDPServer ties a daemon and a console to a
// context and checks cancellation tears both down — every background
// goroutine (serve loops, flow pacer, app ticker, the console's feedback
// timer, context watchers) joins.
func TestContextCancelClosesUDPServer(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := ListenAndServeContext(ctx, "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	srv.Server.Auth.Register("card-ctx", "ctxuser")
	srv.StartTicker(60)
	con, err := DialConsoleContext(ctx, srv.Addr().String(), ConsoleConfig{Width: 160, Height: 120}, TokenOf("card-ctx"))
	if err != nil {
		t.Fatal(err)
	}
	if err := con.TypeString("hi"); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Close is idempotent with the context watcher's close; both block
	// until the goroutines have joined.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after cancel: %v", err)
	}
	if err := con.Close(); err != nil {
		t.Fatalf("console Close after cancel: %v", err)
	}
	// Close joined the listener's and the console's own goroutines, so
	// all that may still be winding down is the two context watchers.
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines: %d before, %d right after Close returned", before, n)
	}
	srv.StartTicker(60) // a closed listener starts nothing
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after cancel+close", before, runtime.NumGoroutine())
}

// TestDialConsoleContextCanceled checks the dial path honors an
// already-dead context instead of connecting.
func TestDialConsoleContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialConsoleContext(ctx, "127.0.0.1:1", ConsoleConfig{Width: 64, Height: 64}, NoToken); err == nil {
		t.Fatal("dial with canceled context succeeded")
	}
}

// TestUDPServerConcurrentClose checks Close is safe to race with itself.
func TestUDPServerConcurrentClose(t *testing.T) {
	srv, err := ListenAndServeContext(testContext(t), "127.0.0.1:0", WithTerminalApp())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { done <- srv.Close() }()
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("concurrent Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("concurrent Close hung")
		}
	}
}
