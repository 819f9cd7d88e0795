package wirebuf

import "testing"

func TestGetSizesAndClasses(t *testing.T) {
	for _, size := range []int{0, 1, 256, 257, 1400, 2048, 100 << 10, 256 << 10} {
		b := Get(size)
		if len(b.Bytes()) != 0 {
			t.Fatalf("Get(%d): len %d, want 0", size, len(b.Bytes()))
		}
		if cap(b.Bytes()) < size {
			t.Fatalf("Get(%d): cap %d too small", size, cap(b.Bytes()))
		}
		b.Release()
	}
}

// TestSecondReleasePanics is the single-owner contract's one check: a
// buffer goes back to the pool once, and whoever releases it again — a
// holder that already handed it on — is stopped before the pool hands the
// same bytes to two datagrams.
func TestSecondReleasePanics(t *testing.T) {
	b := &Buf{class: -1} // detached from the pools so the panic can't poison them
	b.held.Store(true)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release()
}

func TestReuseAfterRelease(t *testing.T) {
	// Pool behavior is best-effort, but a buffer released and re-Got in a
	// tight single-goroutine loop should come back with its capacity.
	b := Get(1000)
	b.SetBytes(append(b.Bytes(), make([]byte, 1000)...))
	b.Release()
	c := Get(1000)
	defer c.Release()
	if len(c.Bytes()) != 0 {
		t.Fatalf("reused buffer has stale len %d", len(c.Bytes()))
	}
}

func TestSetBytesReclasses(t *testing.T) {
	b := Get(100) // 256-class
	b.SetBytes(make([]byte, 0, 4<<10))
	if b.class != 1 { // cap 4096 can serve the 2 KiB class, not the 8 KiB one
		t.Fatalf("class %d after growth, want 1", b.class)
	}
	b.SetBytes(make([]byte, 0, 1<<20))
	if b.class != 4 { // cap 1 MiB serves even the largest class
		t.Fatalf("class %d after oversize growth, want 4", b.class)
	}
	b.SetBytes(make([]byte, 0, 16))
	if b.class != -1 { // too small for any class: fall to the GC
		t.Fatalf("class %d after shrink, want -1", b.class)
	}
	b.Release()
}
