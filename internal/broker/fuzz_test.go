package broker

import (
	"os"
	"testing"

	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

// FuzzBrokerHandleDatagram feeds raw bytes to the broker's datagram entry
// point as if spoofed from either a console that booted and attached or a
// source the broker has never heard from, on an open broker or one closed
// before the datagram arrives. Errors are the expected answer to most
// inputs; the broker must not panic, must refuse everything but a Hello or
// SessionConnect from the stranger without giving it a route, and must
// move the attached console's route only on that console's own Hello or
// SessionConnect. A closed broker refuses every datagram and moves no
// route.
func FuzzBrokerHandleDatagram(f *testing.F) {
	seed, err := os.Open("../protocol/testdata/seed.slimcap")
	if err != nil {
		f.Fatal(err)
	}
	_, recs, err := capture.ReadCapture(seed)
	seed.Close()
	if err != nil {
		f.Fatal(err)
	}
	var wires [][]byte
	for _, rec := range recs {
		if len(rec.Wire) > 0 {
			wires = append(wires, rec.Wire)
		}
	}
	for _, msg := range []protocol.Message{
		&protocol.BandwidthGrant{SessionID: 1, Bps: 1 << 20},
		&protocol.Pong{Nonce: 7},
		&protocol.Device{Port: 2, Payload: []byte("x")},
		&protocol.Status{LastSeq: 0, Dropped: 3},
		&protocol.Hello{Width: 32, Height: 32, CardToken: "card-a"},
		&protocol.SessionConnect{Token: "card-a"},
	} {
		wires = append(wires, protocol.Encode(nil, 1, msg))
	}
	for _, closed := range []bool{false, true} {
		for _, wire := range wires {
			f.Add(false, closed, wire)
			f.Add(true, closed, wire)
		}
	}
	f.Fuzz(func(t *testing.T, stranger, closed bool, wire []byte) {
		b, _, _ := newTestFleet(t, 2, RouteHash)
		b.Register("card-a", "alice")
		if err := b.Handle("desk", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
			t.Fatal(err)
		}
		if closed {
			b.Close()
		}
		route := func(console string) (consoleInfo, bool) {
			ci, ok, _ := b.route(console)
			return ci, ok
		}
		before, _ := route("desk")
		from := "desk"
		if stranger {
			from = "stranger"
		}
		err := b.HandleDatagram(from, wire, 0)

		attach := len(wire) >= protocol.HeaderSize &&
			(protocol.MsgType(wire[3]) == protocol.TypeHello || protocol.MsgType(wire[3]) == protocol.TypeSessionConnect)
		if closed {
			if err == nil {
				t.Fatalf("datagram type %d accepted by a closed broker", wire[3])
			}
			attach = false // nothing may move a route
		}
		if stranger && !attach {
			if err == nil {
				t.Fatalf("datagram type %d from an unregistered console was accepted", wire[3])
			}
			if _, ok := route("stranger"); ok {
				t.Fatal("an unregistered console gained a route without a Hello")
			}
		}
		if after, _ := route("desk"); (stranger || !attach) && after != before {
			t.Fatalf("the attached console's route moved %+v -> %+v on another console's or a non-attach datagram", before, after)
		}
	})
}
