package protocol

import (
	"encoding/binary"
	"fmt"
)

// KeyEvent reports a keyboard state change from the console. In SLIM all
// input is forwarded raw to the server (§4.1): the console does no local
// echo, no editing, nothing.
type KeyEvent struct {
	Code uint16 // USB HID usage code
	Down bool
}

// Type implements Message.
func (m *KeyEvent) Type() MsgType { return TypeKey }

// BodyLen implements Message.
func (m *KeyEvent) BodyLen() int { return 3 }

// MarshalBody implements Message.
func (m *KeyEvent) MarshalBody(dst []byte) []byte {
	var b [3]byte
	binary.BigEndian.PutUint16(b[0:], m.Code)
	if m.Down {
		b[2] = 1
	}
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *KeyEvent) UnmarshalBody(src []byte) error {
	if len(src) != 3 {
		return ErrBodyLen
	}
	if src[2] > 1 {
		// Strict canonical encoding: exactly 0 or 1, so every valid
		// datagram has a single byte representation (fuzz-pinned).
		return fmt.Errorf("protocol: key state byte %d", src[2])
	}
	m.Code = binary.BigEndian.Uint16(src)
	m.Down = src[2] == 1
	return nil
}

// PointerEvent reports mouse position and button state from the console.
type PointerEvent struct {
	X, Y    uint16
	Buttons uint8 // bitmask, bit 0 = left
}

// Type implements Message.
func (m *PointerEvent) Type() MsgType { return TypePointer }

// BodyLen implements Message.
func (m *PointerEvent) BodyLen() int { return 5 }

// MarshalBody implements Message.
func (m *PointerEvent) MarshalBody(dst []byte) []byte {
	var b [5]byte
	binary.BigEndian.PutUint16(b[0:], m.X)
	binary.BigEndian.PutUint16(b[2:], m.Y)
	b[4] = m.Buttons
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *PointerEvent) UnmarshalBody(src []byte) error {
	if len(src) != 5 {
		return ErrBodyLen
	}
	m.X = binary.BigEndian.Uint16(src[0:])
	m.Y = binary.BigEndian.Uint16(src[2:])
	m.Buttons = src[4]
	return nil
}

// Audio carries a block of interleaved 16-bit PCM samples to the console.
type Audio struct {
	SampleRate uint32
	Channels   uint8
	Samples    []byte // little-endian int16 pairs
}

// Type implements Message.
func (m *Audio) Type() MsgType { return TypeAudio }

// BodyLen implements Message.
func (m *Audio) BodyLen() int { return 5 + len(m.Samples) }

// MarshalBody implements Message.
func (m *Audio) MarshalBody(dst []byte) []byte {
	var b [5]byte
	binary.BigEndian.PutUint32(b[0:], m.SampleRate)
	b[4] = m.Channels
	dst = append(dst, b[:]...)
	return append(dst, m.Samples...)
}

// UnmarshalBody implements Message.
func (m *Audio) UnmarshalBody(src []byte) error {
	if len(src) < 5 {
		return ErrShort
	}
	m.SampleRate = binary.BigEndian.Uint32(src)
	m.Channels = src[4]
	if m.Channels == 0 {
		return fmt.Errorf("protocol: audio with zero channels")
	}
	m.Samples = append([]byte(nil), src[5:]...)
	return nil
}

// Hello is the console's first message on power-up: it advertises its
// display geometry, the token read from the smart card (empty if none is
// inserted), and optional capability bits (Cap*). The server replies
// with HelloAck.
//
// Caps rides as a trailing 2-byte extension present only when nonzero:
// a gen-1 console emits the original 6+n-byte body and a gen-1 server
// decoding a gen-2 Hello would reject the extension rather than
// misparse it. The encoding stays canonical (one byte representation
// per value) because an explicit zero extension is rejected on decode.
type Hello struct {
	Width, Height uint16
	CardToken     string
	Caps          uint16
}

// Type implements Message.
func (m *Hello) Type() MsgType { return TypeHello }

// BodyLen implements Message.
func (m *Hello) BodyLen() int {
	n := 6 + len(m.CardToken)
	if m.Caps != 0 {
		n += 2
	}
	return n
}

// MarshalBody implements Message.
func (m *Hello) MarshalBody(dst []byte) []byte {
	var b [6]byte
	binary.BigEndian.PutUint16(b[0:], m.Width)
	binary.BigEndian.PutUint16(b[2:], m.Height)
	binary.BigEndian.PutUint16(b[4:], uint16(len(m.CardToken)))
	dst = append(dst, b[:]...)
	dst = append(dst, m.CardToken...)
	if m.Caps != 0 {
		var c [2]byte
		binary.BigEndian.PutUint16(c[:], m.Caps)
		dst = append(dst, c[:]...)
	}
	return dst
}

// UnmarshalBody implements Message.
func (m *Hello) UnmarshalBody(src []byte) error {
	if len(src) < 6 {
		return ErrShort
	}
	m.Width = binary.BigEndian.Uint16(src[0:])
	m.Height = binary.BigEndian.Uint16(src[2:])
	n := int(binary.BigEndian.Uint16(src[4:]))
	switch len(src) {
	case 6 + n:
		m.CardToken = string(src[6:])
		m.Caps = 0
	case 6 + n + 2:
		m.CardToken = string(src[6 : 6+n])
		m.Caps = binary.BigEndian.Uint16(src[6+n:])
		if m.Caps == 0 {
			// Zero caps must omit the extension (canonical encoding).
			return ErrBodyLen
		}
	default:
		return ErrBodyLen
	}
	return nil
}

// HelloAck acknowledges a Hello and tells the console which session (if
// any) has been attached to it.
type HelloAck struct {
	SessionID uint32 // 0 = no session (login screen)
}

// Type implements Message.
func (m *HelloAck) Type() MsgType { return TypeHelloAck }

// BodyLen implements Message.
func (m *HelloAck) BodyLen() int { return 4 }

// MarshalBody implements Message.
func (m *HelloAck) MarshalBody(dst []byte) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], m.SessionID)
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *HelloAck) UnmarshalBody(src []byte) error {
	if len(src) != 4 {
		return ErrBodyLen
	}
	m.SessionID = binary.BigEndian.Uint32(src)
	return nil
}

// Status is a periodic console heartbeat carrying decode statistics; the
// server uses it to detect losses and console overload.
type Status struct {
	LastSeq uint32 // highest display sequence applied
	Dropped uint32 // commands dropped since boot
	Backlog uint16 // commands waiting to be decoded
}

// Type implements Message.
func (m *Status) Type() MsgType { return TypeStatus }

// BodyLen implements Message.
func (m *Status) BodyLen() int { return 10 }

// MarshalBody implements Message.
func (m *Status) MarshalBody(dst []byte) []byte {
	var b [10]byte
	binary.BigEndian.PutUint32(b[0:], m.LastSeq)
	binary.BigEndian.PutUint32(b[4:], m.Dropped)
	binary.BigEndian.PutUint16(b[8:], m.Backlog)
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *Status) UnmarshalBody(src []byte) error {
	if len(src) != 10 {
		return ErrBodyLen
	}
	m.LastSeq = binary.BigEndian.Uint32(src[0:])
	m.Dropped = binary.BigEndian.Uint32(src[4:])
	m.Backlog = binary.BigEndian.Uint16(src[8:])
	return nil
}

// Nack asks the sender to regenerate display state for a sequence gap.
// Because every SLIM message is idempotent, recovery is replay (or simply
// repainting the damaged region from the server's true frame buffer) —
// never stop-and-wait (§2.2).
type Nack struct {
	From, To uint32 // inclusive sequence range that went missing
}

// Type implements Message.
func (m *Nack) Type() MsgType { return TypeNack }

// BodyLen implements Message.
func (m *Nack) BodyLen() int { return 8 }

// MarshalBody implements Message.
func (m *Nack) MarshalBody(dst []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:], m.From)
	binary.BigEndian.PutUint32(b[4:], m.To)
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *Nack) UnmarshalBody(src []byte) error {
	if len(src) != 8 {
		return ErrBodyLen
	}
	m.From = binary.BigEndian.Uint32(src[0:])
	m.To = binary.BigEndian.Uint32(src[4:])
	return nil
}

// BandwidthRequest asks the console for a downstream bandwidth allocation
// (§7): applications on possibly different servers request based on their
// past needs, and the console arbitrates.
type BandwidthRequest struct {
	SessionID uint32
	Bps       uint64 // requested bits per second
}

// Type implements Message.
func (m *BandwidthRequest) Type() MsgType { return TypeBandwidthRequest }

// BodyLen implements Message.
func (m *BandwidthRequest) BodyLen() int { return 12 }

// MarshalBody implements Message.
func (m *BandwidthRequest) MarshalBody(dst []byte) []byte {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:], m.SessionID)
	binary.BigEndian.PutUint64(b[4:], m.Bps)
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *BandwidthRequest) UnmarshalBody(src []byte) error {
	if len(src) != 12 {
		return ErrBodyLen
	}
	m.SessionID = binary.BigEndian.Uint32(src[0:])
	m.Bps = binary.BigEndian.Uint64(src[4:])
	return nil
}

// BandwidthGrant is the console's reply to a BandwidthRequest.
type BandwidthGrant struct {
	SessionID uint32
	Bps       uint64 // granted bits per second
}

// Type implements Message.
func (m *BandwidthGrant) Type() MsgType { return TypeBandwidthGrant }

// BodyLen implements Message.
func (m *BandwidthGrant) BodyLen() int { return 12 }

// MarshalBody implements Message.
func (m *BandwidthGrant) MarshalBody(dst []byte) []byte {
	var b [12]byte
	binary.BigEndian.PutUint32(b[0:], m.SessionID)
	binary.BigEndian.PutUint64(b[4:], m.Bps)
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *BandwidthGrant) UnmarshalBody(src []byte) error {
	if len(src) != 12 {
		return ErrBodyLen
	}
	m.SessionID = binary.BigEndian.Uint32(src[0:])
	m.Bps = binary.BigEndian.Uint64(src[4:])
	return nil
}

// SessionConnect carries an authentication credential from a console to the
// authentication manager (smart card insertion, or typed password in card-
// less deployments).
type SessionConnect struct {
	Token string
}

// Type implements Message.
func (m *SessionConnect) Type() MsgType { return TypeSessionConnect }

// BodyLen implements Message.
func (m *SessionConnect) BodyLen() int { return 2 + len(m.Token) }

// MarshalBody implements Message.
func (m *SessionConnect) MarshalBody(dst []byte) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(len(m.Token)))
	dst = append(dst, b[:]...)
	return append(dst, m.Token...)
}

// UnmarshalBody implements Message.
func (m *SessionConnect) UnmarshalBody(src []byte) error {
	if len(src) < 2 {
		return ErrShort
	}
	n := int(binary.BigEndian.Uint16(src))
	if len(src) != 2+n {
		return ErrBodyLen
	}
	m.Token = string(src[2:])
	return nil
}

// SessionAttach tells a console that a session's display now owns it; the
// server follows it with a full repaint (the console held only soft state).
type SessionAttach struct {
	SessionID uint32
}

// Type implements Message.
func (m *SessionAttach) Type() MsgType { return TypeSessionAttach }

// BodyLen implements Message.
func (m *SessionAttach) BodyLen() int { return 4 }

// MarshalBody implements Message.
func (m *SessionAttach) MarshalBody(dst []byte) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], m.SessionID)
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *SessionAttach) UnmarshalBody(src []byte) error {
	if len(src) != 4 {
		return ErrBodyLen
	}
	m.SessionID = binary.BigEndian.Uint32(src)
	return nil
}

// SessionDetach tells a console its session has moved elsewhere (the user
// pulled the card and resumed at another desk).
type SessionDetach struct {
	SessionID uint32
}

// Type implements Message.
func (m *SessionDetach) Type() MsgType { return TypeSessionDetach }

// BodyLen implements Message.
func (m *SessionDetach) BodyLen() int { return 4 }

// MarshalBody implements Message.
func (m *SessionDetach) MarshalBody(dst []byte) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], m.SessionID)
	return append(dst, b[:]...)
}

// UnmarshalBody implements Message.
func (m *SessionDetach) UnmarshalBody(src []byte) error {
	if len(src) != 4 {
		return ErrBodyLen
	}
	m.SessionID = binary.BigEndian.Uint32(src)
	return nil
}

// Ping and Pong measure the round-trip time of the interconnection fabric
// (the 550 µs result of Table 4). The payload pads the datagram to a chosen
// wire size so the network yardstick of §6.2 (64 B up, 1200 B down) can be
// expressed with the same message.
type Ping struct {
	Nonce   uint64
	Padding []byte
}

// Type implements Message.
func (m *Ping) Type() MsgType { return TypePing }

// BodyLen implements Message.
func (m *Ping) BodyLen() int { return 8 + len(m.Padding) }

// MarshalBody implements Message.
func (m *Ping) MarshalBody(dst []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], m.Nonce)
	dst = append(dst, b[:]...)
	return append(dst, m.Padding...)
}

// UnmarshalBody implements Message.
func (m *Ping) UnmarshalBody(src []byte) error {
	if len(src) < 8 {
		return ErrShort
	}
	m.Nonce = binary.BigEndian.Uint64(src)
	m.Padding = append([]byte(nil), src[8:]...)
	return nil
}

// Pong answers a Ping, echoing its nonce.
type Pong struct {
	Nonce   uint64
	Padding []byte
}

// Type implements Message.
func (m *Pong) Type() MsgType { return TypePong }

// BodyLen implements Message.
func (m *Pong) BodyLen() int { return 8 + len(m.Padding) }

// MarshalBody implements Message.
func (m *Pong) MarshalBody(dst []byte) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], m.Nonce)
	dst = append(dst, b[:]...)
	return append(dst, m.Padding...)
}

// UnmarshalBody implements Message.
func (m *Pong) UnmarshalBody(src []byte) error {
	if len(src) < 8 {
		return ErrShort
	}
	m.Nonce = binary.BigEndian.Uint64(src)
	m.Padding = append([]byte(nil), src[8:]...)
	return nil
}

// Device carries remote-peripheral traffic (the remote device manager of
// §2.4): opaque bytes tagged with a USB-hub port number.
type Device struct {
	Port    uint8
	Payload []byte
}

// Type implements Message.
func (m *Device) Type() MsgType { return TypeDevice }

// BodyLen implements Message.
func (m *Device) BodyLen() int { return 1 + len(m.Payload) }

// MarshalBody implements Message.
func (m *Device) MarshalBody(dst []byte) []byte {
	dst = append(dst, m.Port)
	return append(dst, m.Payload...)
}

// UnmarshalBody implements Message.
func (m *Device) UnmarshalBody(src []byte) error {
	if len(src) < 1 {
		return ErrShort
	}
	m.Port = src[0]
	m.Payload = append([]byte(nil), src[1:]...)
	return nil
}
