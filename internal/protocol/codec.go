package protocol

import (
	"encoding/binary"
	"fmt"
)

// Encode frames msg into a complete datagram with the given sequence
// number, appending to dst (which may be nil).
func Encode(dst []byte, seq uint32, msg Message) []byte {
	body := msg.BodyLen()
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:], Magic)
	hdr[2] = Version
	hdr[3] = byte(msg.Type())
	binary.BigEndian.PutUint32(hdr[4:], seq)
	binary.BigEndian.PutUint32(hdr[8:], uint32(body))
	dst = append(dst, hdr[:]...)
	dst = msg.MarshalBody(dst)
	return dst
}

// WireSize reports the full datagram size of msg including the header.
// Bandwidth accounting throughout the experiments uses this value.
func WireSize(msg Message) int { return HeaderSize + msg.BodyLen() }

// newMessage allocates the zero value for a message type.
func newMessage(t MsgType) (Message, error) {
	switch t {
	case TypeSet:
		return &Set{}, nil
	case TypeBitmap:
		return &Bitmap{}, nil
	case TypeFill:
		return &Fill{}, nil
	case TypeCopy:
		return &Copy{}, nil
	case TypeCSCS:
		return &CSCS{}, nil
	case TypeKey:
		return &KeyEvent{}, nil
	case TypePointer:
		return &PointerEvent{}, nil
	case TypeAudio:
		return &Audio{}, nil
	case TypeHello:
		return &Hello{}, nil
	case TypeHelloAck:
		return &HelloAck{}, nil
	case TypeStatus:
		return &Status{}, nil
	case TypeNack:
		return &Nack{}, nil
	case TypeBandwidthRequest:
		return &BandwidthRequest{}, nil
	case TypeBandwidthGrant:
		return &BandwidthGrant{}, nil
	case TypeSessionConnect:
		return &SessionConnect{}, nil
	case TypeSessionAttach:
		return &SessionAttach{}, nil
	case TypeSessionDetach:
		return &SessionDetach{}, nil
	case TypePing:
		return &Ping{}, nil
	case TypePong:
		return &Pong{}, nil
	case TypeDevice:
		return &Device{}, nil
	case TypeCachePaint:
		return &CachePaint{}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, uint8(t))
	}
}

// Decode parses one complete datagram. It returns the sequence number, the
// decoded message, and the number of bytes consumed, allowing several
// datagrams to be batched back to back in one packet (§5.4 mentions
// batching of command packets as an optimization; our transport does it).
func Decode(src []byte) (seq uint32, msg Message, n int, err error) {
	if len(src) < HeaderSize {
		return 0, nil, 0, ErrShort
	}
	if binary.BigEndian.Uint16(src[0:]) != Magic {
		return 0, nil, 0, ErrBadMagic
	}
	if src[2] != Version {
		return 0, nil, 0, ErrBadVersion
	}
	t := MsgType(src[3])
	seq = binary.BigEndian.Uint32(src[4:])
	bodyLen := int(binary.BigEndian.Uint32(src[8:]))
	if bodyLen < 0 || len(src) < HeaderSize+bodyLen {
		return 0, nil, 0, ErrShort
	}
	msg, err = newMessage(t)
	if err != nil {
		return 0, nil, 0, err
	}
	if err := msg.UnmarshalBody(src[HeaderSize : HeaderSize+bodyLen]); err != nil {
		return 0, nil, 0, err
	}
	return seq, msg, HeaderSize + bodyLen, nil
}

// DecodeAll parses every datagram in a batched packet.
func DecodeAll(src []byte) ([]Message, []uint32, error) {
	var msgs []Message
	var seqs []uint32
	for len(src) > 0 {
		seq, msg, n, err := Decode(src)
		if err != nil {
			return msgs, seqs, err
		}
		msgs = append(msgs, msg)
		seqs = append(seqs, seq)
		src = src[n:]
	}
	return msgs, seqs, nil
}

// Sequencer hands out the monotonically increasing sequence numbers that
// make SLIM messages replayable and loss detectable. It is not safe for
// concurrent use; each session owns one.
type Sequencer struct {
	next uint32
}

// Next returns the next sequence number, starting at 1 (0 means "none").
func (s *Sequencer) Next() uint32 {
	s.next++
	return s.next
}

// Current returns the most recently issued sequence number.
func (s *Sequencer) Current() uint32 { return s.next }

// Resume continues numbering after last, as if last had just been issued.
// Session migration uses it: a session keeps its ID across servers, so the
// receiving server's sequencer must pick up exactly where the sender's
// stopped or the console's gap tracker would see the stream jump backwards.
func (s *Sequencer) Resume(last uint32) { s.next = last }

// GapTracker watches arriving sequence numbers on the console side and
// reports contiguous gaps so the console can issue a Nack. Out-of-order
// arrival within a small reorder window is tolerated without a Nack, as
// reordering is uncommon on a dedicated switched fabric (§2.2).
type GapTracker struct {
	// ReorderWindow is how far past a gap we let delivery run before
	// declaring the gap a loss.
	ReorderWindow uint32

	highest uint32
	primed  bool
	pending map[uint32]bool // sequence numbers seen beyond a gap
}

// NewGapTracker returns a tracker with the given reorder window.
func NewGapTracker(window uint32) *GapTracker {
	return &GapTracker{ReorderWindow: window, pending: make(map[uint32]bool)}
}

// Observe records the arrival of sequence number seq and returns any
// sequence ranges now considered lost. The first observation primes the
// tracker: a session's numbering continues across console moves, so a
// freshly attached console takes whatever it sees first as its baseline.
func (g *GapTracker) Observe(seq uint32) []Nack {
	if !g.primed {
		g.primed = true
		g.highest = seq
		return nil
	}
	if seq <= g.highest {
		delete(g.pending, seq)
		return nil
	}
	if seq == g.highest+1 {
		g.highest = seq
		// Absorb any pending successors.
		for g.pending[g.highest+1] {
			delete(g.pending, g.highest+1)
			g.highest++
		}
		return nil
	}
	// There is a gap between highest and seq.
	g.pending[seq] = true
	if seq-g.highest > g.ReorderWindow {
		return g.declare(seq)
	}
	return nil
}

// Settle declares lost every sequence number still missing below the
// highest arrival, as Observe does once delivery runs ReorderWindow past a
// gap. The console calls it when the line has gone quiet: no later
// datagram is coming to push the gaps past the window.
func (g *GapTracker) Settle() []Nack {
	top := g.highest
	for s := range g.pending {
		top = max(top, s)
	}
	return g.declare(top)
}

// declare reports everything in (highest, top) that has not arrived as
// lost, in runs, and moves highest to top.
func (g *GapTracker) declare(top uint32) []Nack {
	var nacks []Nack
	for s := g.highest + 1; s < top; s++ {
		switch n := len(nacks); {
		case g.pending[s]:
			delete(g.pending, s)
		case n > 0 && nacks[n-1].To == s-1:
			nacks[n-1].To = s
		default:
			nacks = append(nacks, Nack{From: s, To: s})
		}
	}
	delete(g.pending, top)
	g.highest = top
	return nacks
}

// Highest returns the highest contiguously delivered sequence number.
func (g *GapTracker) Highest() uint32 { return g.highest }
