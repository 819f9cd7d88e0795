package protocol

import (
	"encoding/binary"
	"fmt"
)

// Batched framing. §5.4 observes that the SLIM protocol was not designed
// for low-bandwidth links and that "optimizations like header compression
// and batching of command packets could have a dramatic effect." This file
// implements both: several messages share one datagram, and each batched
// message carries a 4-byte compact header (type, sequence delta, body
// length) instead of the full 12-byte header — on top of saving the
// ~42 bytes of UDP/IP/Ethernet framing per message.

// BatchMagic identifies a batched datagram ("SB").
const BatchMagic = 0x5342

// batchHeaderSize is the outer header: magic(2) version(1) count(1)
// baseSeq(4).
const batchHeaderSize = 8

// compactHeaderSize is the per-message header inside a batch: type(1)
// seqDelta(1) bodyLen(2).
const compactHeaderSize = 4

// maxCompactBody bounds a batched message body (uint16 length field).
const maxCompactBody = 0xffff

// ErrBatchOverflow reports a message that cannot be expressed in compact
// form (body too large or sequence delta beyond 255).
var ErrBatchOverflow = fmt.Errorf("protocol: message does not fit batch framing")

// EncodeBatch frames messages msgs with sequence numbers seqs into one
// batched datagram appended to dst. All sequence numbers must lie within
// 255 of the smallest (the batch rebases on it).
func EncodeBatch(dst []byte, seqs []uint32, msgs []Message) ([]byte, error) {
	if len(msgs) == 0 || len(msgs) > 255 {
		return nil, fmt.Errorf("protocol: batch of %d messages", len(msgs))
	}
	if len(seqs) != len(msgs) {
		return nil, fmt.Errorf("protocol: %d seqs for %d messages", len(seqs), len(msgs))
	}
	base := seqs[0]
	for _, s := range seqs[1:] {
		if s < base {
			base = s
		}
	}
	var hdr [batchHeaderSize]byte
	binary.BigEndian.PutUint16(hdr[0:], BatchMagic)
	hdr[2] = Version
	hdr[3] = byte(len(msgs))
	binary.BigEndian.PutUint32(hdr[4:], base)
	dst = append(dst, hdr[:]...)
	for i, m := range msgs {
		if seqs[i] < base || seqs[i]-base > 255 {
			return nil, fmt.Errorf("%w: seq delta %d", ErrBatchOverflow, int64(seqs[i])-int64(base))
		}
		body := m.BodyLen()
		if body > maxCompactBody {
			return nil, fmt.Errorf("%w: body %d bytes", ErrBatchOverflow, body)
		}
		var ch [compactHeaderSize]byte
		ch[0] = byte(m.Type())
		ch[1] = byte(seqs[i] - base)
		binary.BigEndian.PutUint16(ch[2:], uint16(body))
		dst = append(dst, ch[:]...)
		dst = m.MarshalBody(dst)
	}
	return dst, nil
}

// BatchWireSize reports the batched size of the given messages without
// encoding them.
func BatchWireSize(msgs []Message) int {
	n := batchHeaderSize
	for _, m := range msgs {
		n += compactHeaderSize + m.BodyLen()
	}
	return n
}

// IsBatch reports whether a datagram uses batched framing.
func IsBatch(src []byte) bool {
	return len(src) >= 2 && binary.BigEndian.Uint16(src) == BatchMagic
}

// DecodeBatch parses a batched datagram into its messages and sequence
// numbers.
func DecodeBatch(src []byte) ([]uint32, []Message, error) {
	if len(src) < batchHeaderSize {
		return nil, nil, ErrShort
	}
	if binary.BigEndian.Uint16(src[0:]) != BatchMagic {
		return nil, nil, ErrBadMagic
	}
	if src[2] != Version {
		return nil, nil, ErrBadVersion
	}
	count := int(src[3])
	if count == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrBodyLen)
	}
	base := binary.BigEndian.Uint32(src[4:])
	src = src[batchHeaderSize:]
	seqs := make([]uint32, 0, count)
	msgs := make([]Message, 0, count)
	for i := 0; i < count; i++ {
		if len(src) < compactHeaderSize {
			return nil, nil, ErrShort
		}
		t := MsgType(src[0])
		delta := uint32(src[1])
		if base+delta < base {
			// Sequence space wraparound: a session never issues 2^32
			// commands, so this is a malformed datagram.
			return nil, nil, fmt.Errorf("%w: sequence overflow", ErrBodyLen)
		}
		bodyLen := int(binary.BigEndian.Uint16(src[2:]))
		src = src[compactHeaderSize:]
		if len(src) < bodyLen {
			return nil, nil, ErrShort
		}
		msg, err := newMessage(t)
		if err != nil {
			return nil, nil, err
		}
		if err := msg.UnmarshalBody(src[:bodyLen]); err != nil {
			return nil, nil, err
		}
		src = src[bodyLen:]
		seqs = append(seqs, base+delta)
		msgs = append(msgs, msg)
	}
	if len(src) != 0 {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrBodyLen, len(src))
	}
	return seqs, msgs, nil
}

// DecodeAny parses either framing: a batched datagram yields all its
// messages, a plain datagram yields one.
func DecodeAny(src []byte) ([]uint32, []Message, error) {
	if IsBatch(src) {
		return DecodeBatch(src)
	}
	seq, msg, _, err := Decode(src)
	if err != nil {
		return nil, nil, err
	}
	return []uint32{seq}, []Message{msg}, nil
}

// compactable reports whether wire is exactly one plain-framed display
// command — the only thing PackFrame moves into a frame — and its body
// length. Control messages carry sequence 0 and stay plain.
func compactable(wire []byte) (body int, ok bool) {
	if len(wire) < HeaderSize || binary.BigEndian.Uint16(wire) != Magic ||
		wire[2] != Version || !MsgType(wire[3]).IsDisplay() {
		return 0, false
	}
	body = len(wire) - HeaderSize
	return body, body <= maxCompactBody && binary.BigEndian.Uint32(wire[8:]) == uint32(body)
}

// PackFrame packs the head of one burst of datagrams: the longest run of
// plain-framed display commands at the front of wires (which must not be
// empty) that one frame of at most limit bytes can carry — at most 255
// members, every sequence number within 255 above the first. It returns
// the datagram to send and how many wires it stands for. The frame is
// built in dst, straight from the wire bytes (no Message is decoded); a
// run of one, and anything that is not a plain display command (control
// messages, frames, oversized commands), is returned as the wire it
// arrived as, so traffic that gains nothing from framing is byte-identical
// to unpacked traffic. Callers loop until wires is consumed; nothing is
// held between calls, so a burst never waits for a later one.
func PackFrame(dst []byte, wires [][]byte, limit int) (datagram []byte, n int) {
	first := wires[0]
	body, ok := compactable(first)
	if !ok {
		return first, 1
	}
	base := binary.BigEndian.Uint32(first[4:])
	size := batchHeaderSize + compactHeaderSize + body
	for n = 1; n < len(wires) && n < 255; n++ {
		w := wires[n]
		body, ok := compactable(w)
		if !ok {
			break
		}
		// A sequence below base cannot be expressed (that includes a run
		// crossing the 2^32 wrap, which DecodeBatch rejects).
		seq := binary.BigEndian.Uint32(w[4:])
		if seq < base || seq-base > 255 || size+compactHeaderSize+body > limit {
			break
		}
		size += compactHeaderSize + body
	}
	if n == 1 {
		return first, 1
	}
	dst = append(dst[:0], BatchMagic>>8, BatchMagic&0xff, Version, byte(n), first[4], first[5], first[6], first[7])
	for _, w := range wires[:n] {
		delta := binary.BigEndian.Uint32(w[4:]) - base
		// The body fits 16 bits, so its length is the low half of the
		// plain header's 32-bit field.
		dst = append(dst, w[3], byte(delta), w[10], w[11])
		dst = append(dst, w[HeaderSize:]...)
	}
	return dst, n
}
