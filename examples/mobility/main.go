// Mobility: the SLIM hot-desking model (§1.1). Alice works at desk-1,
// pulls her smart card, walks to desk-2, and inserts it — "the screen is
// returned to the exact state at which it was left", because the console
// held only soft state and the server repaints from its persistent frame
// buffer, through the session's token bucket at the pace the new
// console's grant allows (§7).
package main

import (
	"fmt"
	"log"
	"time"

	"slim"
)

func main() {
	log.SetFlags(0)
	fabric := slim.NewFabric()
	srv := slim.NewServer(fabric, slim.WithTerminalApp())
	srv.Auth.Register("card-alice", "alice")

	mkConsole := func(desk string) *slim.Console {
		con, err := slim.NewConsole(slim.ConsoleConfig{Width: 800, Height: 600})
		if err != nil {
			log.Fatal(err)
		}
		fabric.Attach(desk, con, srv)
		if err := fabric.Boot(desk, ""); err != nil {
			log.Fatal(err)
		}
		return con
	}
	desk1 := mkConsole("desk-1")
	desk2 := mkConsole("desk-2")

	// Morning: Alice badges in at desk-1 and works.
	if err := fabric.InsertCard("desk-1", "card-alice"); err != nil {
		log.Fatal(err)
	}
	if err := fabric.TypeString("desk-1", "draft: SLIM architecture notes\n"); err != nil {
		log.Fatal(err)
	}
	if err := fabric.TypeString("desk-1", "the desktop is an I/O device.\n"); err != nil {
		log.Fatal(err)
	}
	before := desk1.Framebuffer().Snapshot()
	fmt.Printf("desk-1 shows session %d\n", desk1.SessionID())

	// Afternoon: card out (soft state may be discarded at any time),
	// card in at desk-2.
	desk1.RemoveCard()
	if err := fabric.InsertCard("desk-2", "card-alice"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("desk-2 shows session %d\n", desk2.SessionID())

	// desk-2 is owed the whole screen, paid a piece at a time as the
	// grant refills the session's bucket: give the fabric virtual time
	// until nothing is owed.
	for srv.Owed("alice") != nil {
		fabric.SetClock(fabric.Now() + time.Millisecond)
		if err := fabric.Pump(); err != nil {
			log.Fatal(err)
		}
	}

	// The session followed the card, and the screen is pixel-identical.
	if !desk2.Framebuffer().Equal(before) {
		log.Fatal("desk-2 did not restore the exact screen state")
	}
	fmt.Printf("the screen is restored at the grant's pace (%v of virtual time), bit-for-bit; typing resumes mid-line:\n", fabric.Now())
	if err := fabric.TypeString("desk-2", "resumed at another desk.\n"); err != nil {
		log.Fatal(err)
	}
	sess := srv.SessionByUser("alice")
	fmt.Printf("alice's session %d is now displayed on %q\n", sess.ID, sess.Console)
}
