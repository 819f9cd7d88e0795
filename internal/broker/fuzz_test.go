package broker

import (
	"os"
	"testing"

	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

// FuzzBrokerHandleDatagram feeds raw bytes to the broker's datagram entry
// point as if spoofed from either a console that booted and attached or a
// source the broker has never heard from. Errors are the expected answer
// to most inputs; the broker must not panic, must refuse everything but a
// Hello or SessionConnect from the stranger without giving it a route, and
// must move the attached console's route only on that console's own Hello
// or SessionConnect.
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
	for _, rec := range recs {
		if len(rec.Wire) > 0 {
			f.Add(false, rec.Wire)
			f.Add(true, rec.Wire)
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
		f.Add(false, protocol.Encode(nil, 1, msg))
		f.Add(true, protocol.Encode(nil, 1, msg))
	}
	f.Fuzz(func(t *testing.T, stranger bool, wire []byte) {
		b, _, _ := newTestFleet(t, 2, RouteHash)
		b.Register("card-a", "alice")
		if err := b.Handle("desk", &protocol.Hello{Width: 64, Height: 48, CardToken: "card-a"}, 0); err != nil {
			t.Fatal(err)
		}
		route := func(console string) (consoleInfo, bool) {
			b.routeMu.RLock()
			defer b.routeMu.RUnlock()
			ci, ok := b.consoles[console]
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
