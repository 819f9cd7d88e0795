package slim

import (
	"math/rand"
	"testing"
	"time"
)

// TestSystemSoak exercises the whole system at once: three consoles, two
// users hot-desking between them, a desktop application with windows
// opening/moving/closing, intermittent datagram loss on the fabric, and
// periodic application ticks. The invariant throughout: after any
// loss-free settling input, and the virtual time its sessions need to pay
// what they owe at the grant's pace, every attached console is
// pixel-identical to its session's authoritative frame buffer.
func TestSystemSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	fabric := NewFabric()
	srv := NewServer(fabric, WithDesktopApp())
	srv.Auth.Register("card-a", "ana")
	srv.Auth.Register("card-b", "ben")

	desks := []string{"d1", "d2", "d3"}
	consoles := map[string]*Console{}
	for _, d := range desks {
		con, err := NewConsole(ConsoleConfig{Width: 640, Height: 480, ReorderWindow: 2})
		if err != nil {
			t.Fatal(err)
		}
		consoles[d] = con
		fabric.Attach(d, con, srv)
		if err := fabric.Boot(d, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := fabric.InsertCard("d1", "card-a"); err != nil {
		t.Fatal(err)
	}
	if err := fabric.InsertCard("d2", "card-b"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Tick(0); err != nil {
		t.Fatal(err)
	}

	deskOf := map[string]string{"card-a": "d1", "card-b": "d2"}
	userOf := map[string]string{"card-a": "ana", "card-b": "ben"}
	keys := []uint16{'a', 'q', ' ', '\n', KeyNewWindow, KeyCycleFocus, KeyNudgeRight, KeyNudgeDown, KeyCloseWindow}

	verify := func(step int) {
		t.Helper()
		for card, desk := range deskOf {
			sess := srv.SessionByUser(userOf[card])
			if sess == nil || sess.Console != desk {
				t.Fatalf("step %d: %s not on %s", step, userOf[card], desk)
			}
			if !consoles[desk].Framebuffer().Equal(sess.Encoder.FB) {
				t.Fatalf("step %d: console %s diverged from %s's session", step, desk, userOf[card])
			}
		}
	}

	for step := 0; step < 400; step++ {
		card := "card-a"
		if rng.Intn(2) == 0 {
			card = "card-b"
		}
		desk := deskOf[card]
		switch rng.Intn(10) {
		case 0: // hot-desk to a free console
			var free string
			for _, d := range desks {
				used := false
				for _, occ := range deskOf {
					if occ == d {
						used = true
					}
				}
				if !used {
					free = d
					break
				}
			}
			if free == "" {
				continue
			}
			if err := fabric.InsertCard(free, card); err != nil {
				t.Fatal(err)
			}
			deskOf[card] = free
		case 1: // a burst of lossy typing, then loss-free settling input
			fabric.SetLoss(5 + rng.Intn(5))
			for k := 0; k < 20; k++ {
				code := keys[rng.Intn(4)] // plain typing only under loss
				if err := fabric.SendKey(desk, code, true); err != nil {
					t.Fatal(err)
				}
				if err := fabric.SendKey(desk, code, false); err != nil {
					t.Fatal(err)
				}
			}
			fabric.SetLoss(0)
			// Settle: enough loss-free updates to flush any trailing gap
			// past the reorder window.
			for k := 0; k < 6; k++ {
				if err := fabric.SendKey(desk, 'z', true); err != nil {
					t.Fatal(err)
				}
				if err := fabric.SendKey(desk, 'z', false); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // tick the applications
			if err := srv.Tick(time.Duration(step) * 40 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		case 3: // click somewhere
			if err := fabric.SendPointer(desk, uint16(rng.Intn(640)), uint16(rng.Intn(480)), 1); err != nil {
				t.Fatal(err)
			}
		default: // normal interaction
			code := keys[rng.Intn(len(keys))]
			if err := fabric.SendKey(desk, code, true); err != nil {
				t.Fatal(err)
			}
			if err := fabric.SendKey(desk, code, false); err != nil {
				t.Fatal(err)
			}
		}
		settle(t, fabric, srv, "ana", "ben")
		verify(step)
	}

	// The soak must have actually exercised loss.
	if _, dropped := fabric.LossStats(); dropped == 0 {
		t.Error("soak never dropped a datagram")
	}
}
