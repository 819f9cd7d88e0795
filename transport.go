package slim

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"slim/internal/core"
	"slim/internal/protocol"
	"slim/internal/server"
)

// Transport is the server→console datagram path, unified across the
// in-process fabric and the UDP daemon. Send routes one framed protocol
// message to a console by ID, Addr reports where consoles reach the
// transport, and Close releases its resources (idempotent).
type Transport interface {
	// Send delivers one wire-framed datagram to a console.
	Send(console string, wire []byte) error
	// Addr reports the transport's address ("fabric" for in-process).
	Addr() net.Addr
	// Close shuts the transport down. Safe to call more than once.
	Close() error
}

// SessionHandler is the server side a transport feeds console traffic
// into: one Server, or a Broker fronting a shard fleet — the transports
// drive either without knowing which. It is the narrow, datagram-facing
// subset of Directory.
type SessionHandler interface {
	// Handle processes one already-decoded console message.
	Handle(console string, msg Message, now time.Duration) error
	// HandleDatagram processes one raw console datagram.
	HandleDatagram(console string, wire []byte, now time.Duration) error
	// SessionOf reports the session a console is displaying (nil if none).
	SessionOf(console string) *Session
	// PumpFlows services flow governors at now, reporting when more paced
	// traffic becomes sendable.
	PumpFlows(now time.Duration) (next time.Duration, pending bool, err error)
	// FlowPending reports whether paced traffic waits for a PumpFlows.
	FlowPending() bool
	// Tick drives Ticker applications (video players) at now.
	Tick(now time.Duration) error
}

// isDisplayDatagram peeks at a plain-framed datagram's type byte.
func isDisplayDatagram(wire []byte) bool {
	return len(wire) >= protocol.HeaderSize &&
		protocol.MsgType(wire[3]).IsDisplay() && !protocol.IsBatch(wire)
}

// packAndSend is the burst endpoint's loop, written once for the UDP
// listener and for the test transports that stand in for it: the burst
// goes through protocol.PackFrame into one pooled buffer of the largest
// datagram the encoder itself emits, and send gets each datagram with the
// number of commands it carries (more than one: a §5.4 frame; a burst of
// one command is its plain wire). A failed send does not stop the rest of
// the burst; the first error is returned.
func packAndSend(wires [][]byte, send func(datagram []byte, commands int) error) error {
	frame := frames.Get().(*[]byte)
	defer frames.Put(frame)
	var err error
	for len(wires) > 0 {
		datagram, n := protocol.PackFrame(*frame, wires, core.MaxDatagram)
		if serr := send(datagram, n); serr != nil && err == nil {
			err = serr
		}
		wires = wires[n:]
	}
	return err
}

// frames recycles packAndSend's frame buffer: bursts are packed from the
// UDP listener and the test transports at once.
var frames = sync.Pool{New: func() any { b := make([]byte, 0, core.MaxDatagram); return &b }}

// recordWireLoss flight-records the display commands of a datagram that
// never made the wire (a failed socket write, injected fabric loss) — one
// command, or every member of a §5.4 frame — so each one's causal chain
// in its session shows a TX with no RX and a DROP. SessionOf takes the
// server lock: call it outside the transport's own.
func recordWireLoss(h SessionHandler, console string, wire []byte) {
	framed := protocol.IsBatch(wire)
	if h == nil || !(framed || isDisplayDatagram(wire)) {
		return
	}
	sess := h.SessionOf(console)
	if sess == nil || !sess.Telemetry().Flight.Armed() {
		return
	}
	flog := sess.Telemetry().Flight
	if !framed {
		flog.Drop(binary.BigEndian.Uint32(wire[4:8]), protocol.MsgType(wire[3]), int64(len(wire)))
		return
	}
	// Members are charged at their plain-framed size, as their TX was.
	seqs, msgs, _ := protocol.DecodeBatch(wire)
	for i, m := range msgs {
		flog.Drop(seqs[i], m.Type(), int64(protocol.WireSize(m)))
	}
}

// InputSink is a console-side user: keystrokes, pointer motion, typed
// strings, and smart-card insertion, regardless of how the console is
// attached. Fabric desks (Desk) and UDP consoles implement it, sharing
// one implementation of the input helpers.
type InputSink interface {
	// SendKey delivers one key transition to the server.
	SendKey(code uint16, down bool) error
	// SendPointer delivers a mouse update.
	SendPointer(x, y uint16, buttons uint8) error
	// TypeString types a string (press + release per character).
	TypeString(s string) error
	// InsertCard presents a smart card, pulling the owner's session here
	// (§1.1's mobility model).
	InsertCard(token string) error
}

// Compile-time wiring checks: both transports satisfy Transport (the UDP
// ones also take bursts; the fabric must not — TestFabricIsNotABurstSender),
// both console attachments satisfy InputSink, and both server sides
// satisfy SessionHandler.
var (
	_ Transport          = (*Fabric)(nil)
	_ Transport          = (*UDPServer)(nil)
	_ Transport          = (*UDPBroker)(nil)
	_ server.BurstSender = (*UDPServer)(nil)
	_ server.BurstSender = (*UDPBroker)(nil)
	_ InputSink          = Desk{}
	_ InputSink          = (*UDPConsole)(nil)
	_ SessionHandler     = (*Server)(nil)
	_ SessionHandler     = (*Broker)(nil)
)

// inputPort is the one shared InputSink implementation. A transport
// supplies deliver (how a console→server message reaches the server) and
// card (how a card insertion is initiated — the console stamps its own
// token state first); every input helper is derived from those two.
type inputPort struct {
	deliver func(msg Message) error
	card    func(token string) error
}

func (p inputPort) SendKey(code uint16, down bool) error {
	return p.deliver(&protocol.KeyEvent{Code: code, Down: down})
}

func (p inputPort) SendPointer(x, y uint16, buttons uint8) error {
	return p.deliver(&protocol.PointerEvent{X: x, Y: y, Buttons: buttons})
}

func (p inputPort) TypeString(s string) error {
	for i := 0; i < len(s); i++ {
		if err := p.SendKey(uint16(s[i]), true); err != nil {
			return err
		}
		if err := p.SendKey(uint16(s[i]), false); err != nil {
			return err
		}
	}
	return nil
}

func (p inputPort) InsertCard(token string) error {
	return p.card(token)
}
