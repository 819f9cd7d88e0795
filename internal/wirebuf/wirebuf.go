// Package wirebuf is a size-classed arena for wire buffers. The encoder
// marshals every display datagram into a Buf; the buffer then travels with
// the datagram — onto the server's outbound list and into the
// transport — and returns to a sync.Pool for the next
// datagram. Nothing keeps a sent datagram: loss recovery repaints from the
// frame buffer, so a buffer has exactly one owner at any moment.
//
// Ownership contract:
//
//   - Get returns a Buf owned by the caller.
//   - Handing the Buf on (listing the datagram for sending)
//     hands the ownership on; the previous holder must not touch it again.
//   - A transport's Send must not retain the wire slice after returning;
//     the sender releases the buffer as soon as Send comes back, and a
//     transport that delivers later copies the bytes first.
//   - The last holder calls Release exactly once — after the send, or when
//     the command is dropped unsent.
//
// Releasing a buffer that is already free panics (a use-after-release
// waiting to happen).
package wirebuf

import (
	"sync"
	"sync/atomic"
)

// classSizes are the arena's size classes. Display datagrams cluster just
// under the MTU (~1400B), so the 2 KiB class carries most of the traffic;
// the larger classes absorb jumbo-MTU configurations and CSCS strips.
var classSizes = [...]int{256, 2 << 10, 8 << 10, 32 << 10, 128 << 10}

// pools[i] recycles Bufs whose capacity is classSizes[i]. sync.Pool is
// per-P sharded, so encoders on different goroutines do not contend.
var pools [len(classSizes)]sync.Pool

// Buf is one pooled wire buffer.
type Buf struct {
	b []byte
	// held is set from Get to Release; it exists to catch a second Release.
	held atomic.Bool
	// class is the index of the pool this buffer recycles into,
	// -1 for oversized buffers that just fall to the GC.
	class int
}

// Get returns a zero-length buffer with capacity at least size, owned by
// the caller.
func Get(size int) *Buf {
	for i, cs := range classSizes {
		if size <= cs {
			b, ok := pools[i].Get().(*Buf)
			if !ok {
				b = &Buf{b: make([]byte, 0, cs), class: i}
			}
			b.b = b.b[:0]
			b.held.Store(true)
			return b
		}
	}
	b := &Buf{b: make([]byte, 0, size), class: -1}
	b.held.Store(true)
	return b
}

// Bytes reports the buffer's current contents.
func (b *Buf) Bytes() []byte { return b.b }

// SetBytes replaces the buffer's contents with p. Callers use it after an
// append-style marshal that may have grown (and therefore replaced) the
// backing array; the buffer is then re-classed by its new capacity, since a
// pooled buffer must be able to serve any request routed to its class.
func (b *Buf) SetBytes(p []byte) {
	if cap(p) != cap(b.b) {
		b.class = -1
		for i := len(classSizes) - 1; i >= 0; i-- {
			if cap(p) >= classSizes[i] {
				b.class = i
				break
			}
		}
	}
	b.b = p
}

// Release returns the buffer to its pool. The caller must be its owner and
// must not use it, or any slice of it, afterwards.
func (b *Buf) Release() {
	if !b.held.CompareAndSwap(true, false) {
		panic("wirebuf: release of a free buffer")
	}
	if b.class >= 0 {
		pools[b.class].Put(b)
	}
}
