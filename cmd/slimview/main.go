// Command slimview is a headless SLIM console: it attaches to a slimd
// server over UDP, presents a smart card, optionally types text into the
// session, and writes the resulting frame buffer as a PNG screenshot —
// a desktop unit for machines without desks.
//
// Usage:
//
//	slimview -server 127.0.0.1:5499 -card card-demo -type "hello" -o screen.png
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"slim"
)

func main() {
	log.SetPrefix("slimview: ")
	log.SetFlags(log.Ltime)
	server := flag.String("server", "127.0.0.1:5499", "slimd UDP address")
	card := flag.String("card", "card-demo", "smart card token to present")
	width := flag.Int("width", 1024, "display width in pixels")
	height := flag.Int("height", 768, "display height in pixels")
	text := flag.String("type", "", "text to type into the session")
	cps := flag.Float64("cps", 0, "paced typing rate in chars/sec (0 = type instantly)")
	codec2 := flag.Bool("codec2", true, "advertise the gen-2 CACHE_PAINT capability and keep a dirty-tile cache (harmless against gen-1 servers)")
	wait := flag.Duration("wait", 500*time.Millisecond, "settle time before the screenshot")
	out := flag.String("o", "screen.png", "screenshot output path")
	flag.Parse()

	cfg := slim.ConsoleConfig{Width: *width, Height: *height}
	if *codec2 {
		cfg.TileCacheEntries = slim.DefaultTileCacheEntries
	}
	con, err := slim.DialConsoleContext(context.Background(), *server, cfg, slim.TokenOf(*card))
	if err != nil {
		log.Fatal(err)
	}
	defer con.Close()
	time.Sleep(*wait / 2) // allow attach + repaint

	if *text != "" {
		if err := typeText(con, *text, *cps); err != nil {
			log.Fatal(err)
		}
	}
	time.Sleep(*wait)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := con.Console.Framebuffer().WritePNG(f); err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	applied, dropped := con.Console.Counters()
	fmt.Printf("session %d: %d display commands applied, %d dropped; screenshot in %s\n",
		con.Console.SessionID(), applied, dropped, *out)
}

// typeText types s into the sink, instantly at cps<=0 or paced at cps
// keystrokes per second — a human rhythm gives server-side passive path
// estimators (slimd -netqual) an interactive workload to measure rather
// than one burst datagram.
func typeText(sink slim.InputSink, s string, cps float64) error {
	if cps <= 0 {
		return sink.TypeString(s)
	}
	gap := time.Duration(float64(time.Second) / cps)
	for i := 0; i < len(s); i++ {
		if err := sink.TypeString(s[i : i+1]); err != nil {
			return err
		}
		time.Sleep(gap)
	}
	return nil
}
