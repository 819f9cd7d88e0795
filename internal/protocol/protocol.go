// Package protocol defines the SLIM wire protocol: the five display
// commands of Table 1 (SET, BITMAP, FILL, COPY, CSCS), input and audio
// messages, and the status/session control messages described in §2.2 of
// the paper. The protocol is deliberately low level — raw pixel data with
// simple redundancy encodings — so that a console is nothing more than a
// network-attached frame buffer.
//
// Every message carries a unique, monotonically increasing sequence number
// and is idempotent, so messages can be replayed with no ill effects and the
// protocol needs no reliable transport (the Sun Ray 1 used UDP; so do we).
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Magic bytes identify a SLIM datagram; Version is the wire revision.
const (
	Magic   = 0x534C // "SL"
	Version = 1
)

// HeaderSize is the length of the fixed datagram header:
// magic(2) version(1) type(1) seq(4) bodyLen(4).
const HeaderSize = 12

// MsgType identifies the payload carried by a datagram.
type MsgType uint8

// Display command types (server → console).
const (
	TypeSet MsgType = iota + 1
	TypeBitmap
	TypeFill
	TypeCopy
	TypeCSCS
	// Input events (console → server).
	TypeKey
	TypePointer
	// Audio (server → console).
	TypeAudio
	// Status and flow control.
	TypeHello
	TypeHelloAck
	TypeStatus
	TypeNack
	TypeBandwidthRequest
	TypeBandwidthGrant
	// Session management.
	TypeSessionConnect
	TypeSessionAttach
	TypeSessionDetach
	// Liveness.
	TypePing
	TypePong
	// Peripheral (remote device manager) traffic.
	TypeDevice
	// Gen-2 codec display command (server → console, negotiated at
	// attach via the Hello capability bits): paint a cached tile.
	TypeCachePaint

	maxMsgType
)

var typeNames = map[MsgType]string{
	TypeSet:              "SET",
	TypeBitmap:           "BITMAP",
	TypeFill:             "FILL",
	TypeCopy:             "COPY",
	TypeCSCS:             "CSCS",
	TypeKey:              "KEY",
	TypePointer:          "POINTER",
	TypeAudio:            "AUDIO",
	TypeHello:            "HELLO",
	TypeHelloAck:         "HELLO_ACK",
	TypeStatus:           "STATUS",
	TypeNack:             "NACK",
	TypeBandwidthRequest: "BW_REQUEST",
	TypeBandwidthGrant:   "BW_GRANT",
	TypeSessionConnect:   "SESSION_CONNECT",
	TypeSessionAttach:    "SESSION_ATTACH",
	TypeSessionDetach:    "SESSION_DETACH",
	TypePing:             "PING",
	TypePong:             "PONG",
	TypeDevice:           "DEVICE",
	TypeCachePaint:       "CACHE_PAINT",
}

// String returns the human-readable command name used in the paper.
func (t MsgType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// IsDisplay reports whether t is a display command: one of the five
// Table 1 commands, or the negotiated gen-2 CACHE_PAINT. Display
// commands mutate the console's frame buffer and participate in
// sequence-gap tracking and NACK recovery.
func (t MsgType) IsDisplay() bool {
	return (t >= TypeSet && t <= TypeCSCS) || t == TypeCachePaint
}

// Message is any SLIM protocol message. Marshal appends the body (not the
// header) to dst; BodyLen reports the body length without marshalling so
// bandwidth accounting is allocation free.
type Message interface {
	Type() MsgType
	BodyLen() int
	MarshalBody(dst []byte) []byte
	UnmarshalBody(src []byte) error
}

// Wire errors.
var (
	ErrBadMagic    = errors.New("protocol: bad magic")
	ErrBadVersion  = errors.New("protocol: unsupported version")
	ErrShort       = errors.New("protocol: short datagram")
	ErrBadType     = errors.New("protocol: unknown message type")
	ErrBodyLen     = errors.New("protocol: body length mismatch")
	ErrBadGeometry = errors.New("protocol: invalid rectangle geometry")
)

// Rect is a rectangular screen region. SLIM commands all operate on
// rectangles; coordinates are in pixels with the origin at the top left.
type Rect struct {
	X, Y, W, H int
}

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Pixels reports the number of pixels covered.
func (r Rect) Pixels() int {
	if r.Empty() {
		return 0
	}
	return r.W * r.H
}

// Valid reports whether the rectangle has non-negative origin and positive
// extent and fits in the 16-bit wire fields.
func (r Rect) Valid() bool {
	return r.X >= 0 && r.Y >= 0 && r.W > 0 && r.H > 0 &&
		r.X <= 0xffff && r.Y <= 0xffff && r.W <= 0xffff && r.H <= 0xffff
}

// Intersect returns the intersection of r and o (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	x1 := max(r.X, o.X)
	y1 := max(r.Y, o.Y)
	x2 := min(r.X+r.W, o.X+o.W)
	y2 := min(r.Y+r.H, o.Y+o.H)
	if x2 <= x1 || y2 <= y1 {
		return Rect{}
	}
	return Rect{X: x1, Y: y1, W: x2 - x1, H: y2 - y1}
}

// Contains reports whether o lies entirely inside r.
func (r Rect) Contains(o Rect) bool {
	if o.Empty() {
		return true
	}
	return o.X >= r.X && o.Y >= r.Y && o.X+o.W <= r.X+r.W && o.Y+o.H <= r.Y+r.H
}

func (r Rect) String() string {
	return fmt.Sprintf("%dx%d+%d+%d", r.W, r.H, r.X, r.Y)
}

func putRect(dst []byte, r Rect) []byte {
	var b [8]byte
	binary.BigEndian.PutUint16(b[0:], uint16(r.X))
	binary.BigEndian.PutUint16(b[2:], uint16(r.Y))
	binary.BigEndian.PutUint16(b[4:], uint16(r.W))
	binary.BigEndian.PutUint16(b[6:], uint16(r.H))
	return append(dst, b[:]...)
}

func getRect(src []byte) (Rect, []byte, error) {
	if len(src) < 8 {
		return Rect{}, nil, ErrShort
	}
	r := Rect{
		X: int(binary.BigEndian.Uint16(src[0:])),
		Y: int(binary.BigEndian.Uint16(src[2:])),
		W: int(binary.BigEndian.Uint16(src[4:])),
		H: int(binary.BigEndian.Uint16(src[6:])),
	}
	return r, src[8:], nil
}

// Pixel is a 24-bit RGB pixel in 0xRRGGBB form. The SLIM wire format packs
// pixels as 3 bytes; consoles expand them to the frame buffer's native
// 4-byte format (which is what gives SET its high per-pixel cost in
// Table 5).
type Pixel uint32

// RGB assembles a pixel from 8-bit components.
func RGB(r, g, b uint8) Pixel {
	return Pixel(uint32(r)<<16 | uint32(g)<<8 | uint32(b))
}

// R, G and B extract the 8-bit colour components.
func (p Pixel) R() uint8 { return uint8(p >> 16) }
func (p Pixel) G() uint8 { return uint8(p >> 8) }
func (p Pixel) B() uint8 { return uint8(p) }
