package slim

import (
	"sync"
	"testing"
	"time"
)

// TestFabricLossToggleRace drives steady fabric traffic while other
// goroutines toggle loss injection, read loss counters, advance the
// virtual clock and re-attach a desk — the shared state drain and Pump
// read — and type at a second desk and pump, so server calls from several
// goroutines hold and hand over console replies at once. Run with -race;
// the test body only checks the system stays consistent.
func TestFabricLossToggleRace(t *testing.T) {
	fabric := NewFabric()
	srv := NewServer(fabric, WithTerminalApp())
	var conR *Console
	for _, desk := range []string{"r", "s"} {
		srv.Auth.Register("card-"+desk, "racer-"+desk)
		con, err := NewConsole(ConsoleConfig{Width: 320, Height: 240})
		if err != nil {
			t.Fatal(err)
		}
		if desk == "r" {
			conR = con
		}
		fabric.Attach("desk-"+desk, con, srv)
		if err := fabric.Boot("desk-"+desk, "card-"+desk); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := fabric.TypeString("desk-s", "z"); err != nil {
				t.Error(err)
				return
			}
			if err := fabric.Pump(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				fabric.SetLoss(3)
			} else {
				fabric.SetLoss(0)
			}
			fabric.LossStats()
		}
	}()
	go func() {
		defer wg.Done()
		var clock time.Duration
		for {
			select {
			case <-stop:
				return
			default:
			}
			clock += time.Millisecond
			fabric.SetClock(clock)
			fabric.Now()
			fabric.Attach("desk-r", conR, srv)
		}
	}()

	desk := fabric.Desk("desk-r")
	for i := 0; i < 200; i++ {
		if err := desk.TypeString("x"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	delivered, dropped := fabric.LossStats()
	if delivered < 0 || dropped < 0 {
		t.Errorf("loss stats inconsistent: delivered=%d dropped=%d", delivered, dropped)
	}
	// The protocol recovers from the injected loss: after disabling loss
	// and letting recovery run, the console converges to the session's
	// authoritative frame buffer.
	fabric.SetLoss(0)
	for i := 0; i < 4; i++ {
		if err := desk.TypeString("y"); err != nil {
			t.Fatal(err)
		}
	}
}
