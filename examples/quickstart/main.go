// Quickstart: a complete SLIM system in one process — a server running the
// glyph terminal, a stateless console on an in-process fabric, a smart
// card, some typing, and a PNG screenshot of the console's frame buffer.
package main

import (
	"fmt"
	"log"
	"os"

	"slim"
)

func main() {
	log.SetFlags(0)

	// The fabric is the dedicated interconnect; it doubles as the server's
	// transport (§2.1).
	fabric := slim.NewFabric()

	// One server, running the echo terminal as every session's app (§2.4).
	// Options configure the rest: the grant-paced send governor (§7), its
	// defaults derived from the Sun Ray 1 decode costs (Table 5), paces
	// each session's traffic to whatever bandwidth its console grants.
	srv := slim.NewServer(fabric, slim.WithTerminalApp(),
		slim.WithFlowControl(slim.FlowConfig{}))
	srv.Auth.Register("card-alice", "alice")

	// One stateless console at desk-1 (§2.3).
	con, err := slim.NewConsole(slim.ConsoleConfig{Width: 640, Height: 400})
	if err != nil {
		log.Fatal(err)
	}
	fabric.Attach("desk-1", con, srv)

	// Power on with Alice's card inserted: the server authenticates,
	// creates her session, and paints the terminal.
	if err := fabric.Boot("desk-1", "card-alice"); err != nil {
		log.Fatal(err)
	}
	if err := fabric.TypeString("desk-1", "hello, thin world!\n"); err != nil {
		log.Fatal(err)
	}
	if err := fabric.TypeString("desk-1", "the console holds no state.\n"); err != nil {
		log.Fatal(err)
	}

	// Screenshot straight from the console's soft frame buffer.
	f, err := os.Create("quickstart.png")
	if err != nil {
		log.Fatal(err)
	}
	if err := con.Framebuffer().WritePNG(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	applied, dropped := con.Counters()
	sess := srv.SessionByUser("alice")
	fmt.Printf("session %d for %s on desk-1\n", sess.ID, sess.User)
	fmt.Printf("display commands applied: %d (dropped %d)\n", applied, dropped)
	fmt.Printf("wire bytes per command type:\n%s", sess.Encoder.Stats.String())
	fmt.Println("screenshot written to quickstart.png")
}
