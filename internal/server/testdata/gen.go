//go:build ignore

// gen writes the session state file TestLoadSessionsReadsParentFormat
// loads. The checked-in state_34ac174.gob was produced by running this
// file at commit 34ac174, the last commit whose SaveSessions wrote its own
// per-session layout (Pixels as []uint32, no LastSeq). Running it at a
// later commit writes the current layout, which is not what the test is
// for; to regenerate, clone the repository at 34ac174, copy this file in,
// and from the clone's root run
//
//	go run internal/server/testdata/gen.go > state_34ac174.gob
//
// The test repeats the drive below, so change both together.
package main

import (
	"log"
	"os"

	"slim/internal/protocol"
	"slim/internal/server"
)

type discard struct{}

func (discard) Send(string, []byte) error { return nil }

func main() {
	s := server.New(discard{}, func(user string, w, h int) server.Application {
		return server.NewTerminal(w, h)
	})
	s.Auth.Register("card-alice", "alice")
	s.Auth.Register("card-bob", "bob")
	must(s.Handle("c1", &protocol.Hello{Width: 96, Height: 64, CardToken: "card-alice"}, 0))
	for _, ch := range "parent format\nline two" {
		must(s.Handle("c1", &protocol.KeyEvent{Code: uint16(ch), Down: true}, 0))
	}
	must(s.Handle("c2", &protocol.Hello{Width: 64, Height: 32, CardToken: "card-bob"}, 0))
	must(s.SaveSessions(os.Stdout))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
