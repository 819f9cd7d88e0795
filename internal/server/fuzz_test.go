package server

import (
	"os"
	"testing"

	"slim/internal/obs/capture"
	"slim/internal/protocol"
)

// discard is a transport that drops everything it is handed.
type discard struct{}

func (discard) Send(string, []byte) error { return nil }

// FuzzServerHandleDatagram feeds raw bytes to the entry point both
// transports hand console datagrams to, once as a console with a session
// attached and once as a console the server has never heard from. Errors
// are the expected answer to most inputs; the server must not panic, must
// not mint sessions for anyone but the one registered user, and must keep
// serving the attached console's session afterwards.
func FuzzServerHandleDatagram(f *testing.F) {
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
			f.Add(rec.Wire)
		}
	}
	f.Add(protocol.Encode(nil, 1, &protocol.Status{LastSeq: 0, Dropped: 9}))
	f.Add(protocol.Encode(nil, 2, &protocol.Nack{From: 1, To: 1 << 30}))
	f.Add(protocol.Encode(nil, 2, &protocol.Nack{From: 0, To: 0xffffffff})) // no sequence number that far is issued
	f.Add(protocol.Encode(nil, 3, hello(1, 1, "card-alice")))
	f.Fuzz(func(t *testing.T, wire []byte) {
		s := New(discard{}, func(user string, w, h int) Application { return NewTerminal(w, h) })
		s.Auth.Register("card-alice", "alice")
		if err := s.Handle("attached", hello(96, 64, "card-alice"), 0); err != nil {
			t.Fatal(err)
		}
		sess := s.SessionByUser("alice")
		_ = s.HandleDatagram("attached", wire, 0)
		_ = s.HandleDatagram("stranger", wire, 0)
		if n := s.SessionCount(); n != 1 {
			t.Fatalf("%d sessions after the datagram, want alice's one", n)
		}
		if s.SessionByUser("alice") != sess {
			t.Fatal("alice's session was replaced")
		}
		// Wherever the datagram left the session (it may have moved to the
		// stranger, or been detached), a card brings it back and it types.
		if err := s.Handle("attached", &protocol.SessionConnect{Token: "card-alice"}, 0); err != nil {
			t.Fatalf("re-attach after the datagram: %v", err)
		}
		if err := s.Handle("attached", &protocol.KeyEvent{Code: 'x', Down: true}, 0); err != nil {
			t.Fatalf("keystroke after the datagram: %v", err)
		}
	})
}
