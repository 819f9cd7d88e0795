package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"slim"
)

// hostRTT measures Table 4's host response time (§4.1): the median
// round trip from a keystroke leaving a console to the echoed glyph
// applied on it, over loopback UDP through the shipped endpoint — slimd's
// profile serving the terminal, a gen-2 console dialled to it as slimview
// dials.
func hostRTT(ctx context.Context, samples int) (time.Duration, error) {
	srv, err := slim.ListenAndServeContext(ctx, "127.0.0.1:0", slim.WithTerminalApp(),
		slim.WithFlowControl(slim.FlowConfig{}), slim.WithCodec2())
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	srv.Server.Auth.Register("card-bench", "bench")
	con, err := slim.DialConsoleContext(ctx, srv.Addr().String(), slim.ConsoleConfig{
		Width: 640, Height: 480, TileCacheEntries: slim.DefaultTileCacheEntries,
	}, slim.TokenOf("card-bench"))
	if err != nil {
		return 0, err
	}
	defer con.Close()

	// Boot: the attach and its repaint settle before the first keystroke.
	applied := func() uint64 { n, _ := con.Console.Counters(); return n }
	deadline := time.Now().Add(3 * time.Second)
	for last := ^uint64(0); con.Console.SessionID() == 0 || applied() != last; {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("hostrtt: attach did not settle")
		}
		last = applied()
		time.Sleep(50 * time.Millisecond)
	}

	// Measure: key press → its echo applied. The release paints nothing.
	rtts := make([]time.Duration, samples)
	for i := range rtts {
		key := uint16('a' + i%26)
		before, start := applied(), time.Now()
		if err := con.SendKey(key, true); err != nil {
			return 0, err
		}
		for applied() == before {
			if time.Since(start) > 2*time.Second {
				return 0, fmt.Errorf("hostrtt: keystroke %d was never echoed", i)
			}
			runtime.Gosched()
		}
		rtts[i] = time.Since(start)
		if err := con.SendKey(key, false); err != nil {
			return 0, err
		}
	}
	slices.Sort(rtts)
	return rtts[samples/2], nil
}
