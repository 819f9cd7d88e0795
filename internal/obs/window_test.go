package obs

import (
	"sync"
	"testing"
	"time"
)

// TestWindowRotation pins the slot-expiry arithmetic directly.
func TestWindowRotation(t *testing.T) {
	var w Window
	w.Init(WindowSlots * time.Second)
	sec := int64(time.Second)
	w.Add(sec, 10, 1, 1000)
	if a, l, b := w.Totals(sec); a != 10 || l != 1 || b != 1000 {
		t.Fatalf("totals = %d/%d/%d", a, l, b)
	}
	// Still visible 15 slots later, gone at 16.
	if a, _, _ := w.Totals(16 * sec); a != 10 {
		t.Errorf("slot expired early: a=%d", a)
	}
	if a, _, _ := w.Totals(17 * sec); a != 0 {
		t.Errorf("slot survived expiry: a=%d", a)
	}
	// Re-observing a recycled slot resets it.
	w.Add(17*sec, 3, 0, 300)
	if a, l, b := w.Totals(17 * sec); a != 3 || l != 0 || b != 300 {
		t.Errorf("recycled slot totals = %d/%d/%d", a, l, b)
	}
	if w.Span() != WindowSlots*time.Second {
		t.Errorf("span = %v", w.Span())
	}
}

// TestWindowExpiry: Expiry names the first instant Totals no longer
// counts an add, whatever the add's offset into its slot.
func TestWindowExpiry(t *testing.T) {
	for _, at := range []int64{0, 1, int64(time.Second) - 1, int64(time.Second), 5*int64(time.Second) + 7} {
		var w Window
		w.Init(WindowSlots * time.Second)
		w.Add(at, 1, 0, 0)
		end := w.Expiry(at)
		if a, _, _ := w.Totals(end - 1); a == 0 {
			t.Errorf("add at %d gone at %d, before its expiry %d", at, end-1, end)
		}
		if a, _, _ := w.Totals(end); a != 0 {
			t.Errorf("add at %d still counted at its expiry %d", at, end)
		}
	}
}

// TestWindowDropsStaleWriter pins the one stale-writer rule the SLO and
// path-quality windows now share: a writer whose instant is a whole
// revolution (or more) behind the slot's epoch is dropped, not folded into
// the newer slot. First sequentially, then racing a stale writer against
// the rotation: however the two interleave, at most the single add that
// checked the epoch just before the rotation can leak into the new slot.
func TestWindowDropsStaleWriter(t *testing.T) {
	sec := int64(time.Second)
	fresh, stale := 20*sec, 4*sec // same slot, one revolution apart

	var w Window
	w.Init(WindowSlots * time.Second)
	w.Add(fresh, 1, 0, 0)
	w.Add(stale, 100, 0, 0)
	if a, _, _ := w.Totals(fresh); a != 1 {
		t.Fatalf("stale writer folded into the newer slot: a=%d, want 1", a)
	}

	const staleAdds, freshAdds = 2000, 50
	for round := 0; round < 50; round++ {
		var w Window
		w.Init(WindowSlots * time.Second)
		w.Add(stale, 1, 0, 0) // the slot starts out on the old epoch
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < staleAdds; i++ {
				w.Add(stale, 1, 0, 0)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < freshAdds; i++ {
				w.Add(fresh, 1, 0, 0)
			}
		}()
		wg.Wait()
		if a, _, _ := w.Totals(fresh); a < freshAdds || a > freshAdds+1 {
			t.Fatalf("round %d: new slot holds %d, want %d (or one straddling add more)", round, a, freshAdds)
		}
	}
}

func TestClockDomains(t *testing.T) {
	if NewClock(DomainWall) != Wall {
		t.Error("the wall domain has more than one clock")
	}
	a, b := Wall.Now(), Wall.Now()
	if a <= 0 || b < a {
		t.Errorf("wall clock not monotonic from a process epoch: %v then %v", a, b)
	}
	sim := NewClock(DomainSim)
	if sim == NewClock(DomainSim) || sim.Domain() != DomainSim || sim.Now() != 0 {
		t.Errorf("sim clocks must be fresh virtual clocks at zero")
	}
	sim.Set(5 * time.Second)
	sim.Advance(3 * time.Second) // out-of-order explicit timestamp: no rewind
	if sim.Now() != 5*time.Second {
		t.Errorf("Advance rewound the clock to %v", sim.Now())
	}
	sim.Advance(7 * time.Second)
	sim.Set(time.Second) // the harness may rewind
	if sim.Now() != time.Second {
		t.Errorf("Set did not move the clock: %v", sim.Now())
	}
	for name, fn := range map[string]func(){
		"Set":     func() { Wall.Set(0) },
		"Advance": func() { Wall.Advance(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on the wall clock did not panic", name)
				}
			}()
			fn()
		}()
	}
}
