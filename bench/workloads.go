package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"slim"
	"slim/internal/core"
	"slim/internal/protocol"
	"slim/internal/server"
	"slim/internal/stats"
	"slim/internal/workload"
)

// A workload is one set of inputs the benchmark runs. Every input is a
// real keystroke (key-down then key-up) sent by a console; what the
// session application paints for it is what differs between workloads.
// All inputs are generated in set-up from the seed and replayed
// cyclically, so the program under test only ever receives generated
// inputs.
type workloadSpec struct {
	name string
	why  string
	// fabric selects the in-process broker fleet over slim.Fabric; false
	// is one server and one console over loopback UDP.
	fabric bool
	// w×h is the console geometry; sessions the number of consoles.
	w, h     int
	sessions int
	// rate is the open-loop input rate in events per second; 0 means
	// closed loop (the next input is sent when the previous one painted).
	rate float64
	// warm is the number of inputs replayed closed-loop during set-up, so
	// caches fill and lazy set-up finishes before anything is timed.
	warm int
	// script builds the per-input rendering ops for workloads whose
	// application is scripted (scroll, video); nil runs the echo terminal.
	script func(seed uint64, w, h int) (*script, error)
}

// Fleet geometry of fleet_fabric.
const (
	fleetShards   = 4
	fleetSessions = 32
)

var workloads = []workloadSpec{
	{
		name: "type_udp",
		why:  "open loop, 100 keystrokes/s over live loopback UDP, one 42-byte BITMAP each: per-datagram cost and idle wake-ups dominate (udp, server dispatch, protocol)",
		w:    1280, h: 1024, sessions: 1,
		rate: 100, warm: 300,
	},
	{
		name: "scroll_udp",
		why:  "open loop, 20 scroll steps/s over live UDP: COPY plus a 512x48 exposed strip whose tiles are cache hits after the first pass (core, fb, flow batching)",
		w:    1280, h: 1024, sessions: 1,
		rate: 20, warm: scrollPrimes + scrollCycle,
		script: scrollScript,
	},
	{
		name: "video_udp",
		why:  "open loop, 24 fresh 320x240 CSCS frames/s over live UDP: pure churn that never caches, so the gen-2 probe is overhead (fb conversion, flow pacing)",
		w:    1280, h: 1024, sessions: 1,
		rate: 24, warm: videoFrames,
		script: videoScript,
	},
	{
		name:   "fleet_fabric",
		why:    "closed loop, one driver over 32 terminal sessions on a 4-shard broker on the in-process fabric: broker routing, session table, locking; no sockets",
		fabric: true,
		w:      640, h: 480, sessions: fleetSessions,
		warm: 16 * fleetSessions,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// period is the open-loop spacing between inputs (0 for closed loop).
func (w workloadSpec) period() time.Duration {
	if w.rate <= 0 {
		return 0
	}
	return time.Duration(float64(time.Second) / w.rate)
}

// script is a pre-generated op stream: prologue steps play once, then
// cycle repeats forever.
type script struct {
	prologue [][]core.Op
	cycle    [][]core.Op
}

func (s *script) step(i int) []core.Op {
	if i < len(s.prologue) {
		return s.prologue[i]
	}
	return s.cycle[(i-len(s.prologue))%len(s.cycle)]
}

// scrollCycle is one full bounce of internal/workload's scroll drive: 12
// steps down the document and 12 back, after which the screen and the
// drive are exactly where they started. scrollPrimeRows is the height of
// the strips the priming paint is delivered in (8 of them).
const (
	scrollCycle     = 24
	scrollPrimeRows = 48
	scrollPrimes    = 384 / scrollPrimeRows
)

// scrollScript pre-generates the scroll drive: the priming paint of the
// 512x384 view, then one bounce (COPY of the 512x336 body plus the 512x48
// exposed strip per step). The ops alias the drive's document pixels.
//
// The drive primes with one 512x384 ImageOp — 600 KB of literal tiles,
// more than twice what a session's flow governor will queue (256 KB), so
// sent in one piece the governor evicts most of it and the console
// recovers by NACK, slowly and differently on every run. Set-up is not
// what this workload is about, so the priming paint is cut into strips
// the governor can hold, one input each.
func scrollScript(seed uint64, _, _ int) (*script, error) {
	d, err := workload.NewDrive("scroll", seed)
	if err != nil {
		return nil, err
	}
	s := &script{}
	for _, op := range d.Step(0) {
		img, ok := op.(core.ImageOp)
		if !ok {
			return nil, fmt.Errorf("scroll drive primes with %T, want an ImageOp", op)
		}
		for y := 0; y < img.Rect.H; y += scrollPrimeRows {
			h := min(scrollPrimeRows, img.Rect.H-y)
			s.prologue = append(s.prologue, []core.Op{core.ImageOp{
				Rect:   protocol.Rect{X: img.Rect.X, Y: img.Rect.Y + y, W: img.Rect.W, H: h},
				Pixels: img.Pixels[y*img.Rect.W : (y+h)*img.Rect.W],
			}})
		}
	}
	for i := 1; i <= scrollCycle; i++ {
		s.cycle = append(s.cycle, d.Step(i))
	}
	return s, nil
}

// Video geometry: the stored-movie source is decoded once in set-up and
// decimated to quarter size, the window a 1999 desktop played movies in.
const (
	videoW, videoH = 320, 240
	videoFrames    = 48
)

// videoScript pre-decodes a 48-frame loop of the MPEG-II stand-in to
// 320x240 and wraps each frame in the VideoOp slimd's player would emit
// (CSCS at 6 bits per pixel). The source's pixels do not depend on its
// seed, so the seed picks where the loop starts and where on the screen
// the movie plays.
func videoScript(seed uint64, w, h int) (*script, error) {
	src := slim.NewMPEG2Source(seed)
	sw, sh := src.Geometry()
	rng := stats.NewRNG(seed)
	dst := protocol.Rect{
		X: rng.Intn((w-videoW)/2) * 2,
		Y: rng.Intn((h-videoH)/2) * 2,
		W: videoW, H: videoH,
	}
	frames := make([][]core.Op, videoFrames)
	for i := range frames {
		f := src.Next()
		pix := make([]protocol.Pixel, videoW*videoH)
		for y := 0; y < videoH; y++ {
			row := f.Pixels[(y*sh/videoH)*sw:]
			for x := 0; x < videoW; x++ {
				pix[y*videoW+x] = row[x*sw/videoW]
			}
		}
		frames[i] = []core.Op{core.VideoOp{
			Src:    protocol.Rect{W: videoW, H: videoH},
			Dst:    dst,
			Format: protocol.CSCS6,
			Pixels: pix,
		}}
	}
	phase := rng.Intn(videoFrames)
	s := &script{}
	for i := range frames {
		s.cycle = append(s.cycle, frames[(i+phase)%videoFrames])
	}
	return s, nil
}

// typedKeys generates n printable key codes from the seed.
func typedKeys(seed uint64, n int) []uint16 {
	rng := stats.NewRNG(seed)
	keys := make([]uint16, n)
	for i := range keys {
		keys[i] = uint16('!' + rng.Intn('~'-'!'+1))
	}
	return keys
}

// inputs is everything a run replays: the key code of each input in the
// cycle and, for scripted workloads, the ops the application answers with.
type inputs struct {
	keys   []uint16
	script *script
}

// typeCycle is the input cycle length of the terminal workloads (the
// paper-sized 3 000-sample echo test of §4.1); scripted workloads cycle
// with their script.
const typeCycle = 3000

func generateInputs(w workloadSpec, seed uint64) (*inputs, error) {
	in := &inputs{}
	if w.script != nil {
		s, err := w.script(seed, w.w, w.h)
		if err != nil {
			return nil, err
		}
		in.script = s
		in.keys = typedKeys(seed, len(s.cycle))
		return in, nil
	}
	in.keys = typedKeys(seed, typeCycle)
	return in, nil
}

// benchApp wraps a session's application so the harness can learn, without
// extra traffic, which display sequence number ends the paint for input k.
// Real typing sends key-down then key-up; the wrapped applications ignore
// key-up, and the server handles one console's datagrams in order under
// its lock — so HandleKey(up) runs right after the encode for key-down
// finished, on the same goroutine, and can read the encoder's last issued
// sequence safely. It publishes (ups, seq) through one atomic.
//
// Scripted workloads answer key-down k with step k of their script. The
// terminal workloads home the cursor every homeEvery key-downs, so the
// echo test overwrites the screen from the top instead of ever scrolling
// it: every input stays one BITMAP.
type benchApp struct {
	inner     server.Application
	script    *script
	homeEvery int
	downs     int
	ups       uint32

	enc atomic.Pointer[core.Encoder]
	pub atomic.Uint64

	// rec, when non-nil, is the traced pass's recorder: key-down handling
	// becomes an app.render span and its ops are captured for replay.
	rec *recorder
}

func (a *benchApp) HandleKey(ev protocol.KeyEvent) []core.Op {
	if !ev.Down {
		a.ups++
		var seq uint32
		if enc := a.enc.Load(); enc != nil {
			seq = enc.LastSeq()
		}
		a.pub.Store(uint64(a.ups)<<32 | uint64(seq))
		return nil
	}
	if a.rec != nil {
		sp := a.rec.begin(spanAppRender)
		ops := a.render(ev)
		a.rec.end(sp)
		a.rec.captureOps(ops)
		return ops
	}
	return a.render(ev)
}

func (a *benchApp) render(ev protocol.KeyEvent) []core.Op {
	k := a.downs
	a.downs++
	if a.script != nil {
		return a.script.step(k)
	}
	if a.homeEvery > 0 && k > 0 && k%a.homeEvery == 0 {
		a.inner.HandlePointer(protocol.PointerEvent{Buttons: 1})
	}
	return a.inner.HandleKey(ev)
}

func (a *benchApp) HandlePointer(ev protocol.PointerEvent) []core.Op {
	if a.inner != nil {
		return a.inner.HandlePointer(ev)
	}
	return nil
}

// published reports the key-up count and the encoder sequence the
// application published with it.
func (a *benchApp) published() (ups, seq uint32) {
	v := a.pub.Load()
	return uint32(v >> 32), uint32(v)
}

// appFactory builds the slim.AppFactory for a workload. Every session it
// creates is appended to apps (under the server's lock; the harness reads
// the slice only after the attach that created the session returned).
func appFactory(w workloadSpec, in *inputs, rec *recorder, apps *[]*benchApp) slim.AppFactory {
	return func(user string, sw, sh int) slim.Application {
		a := &benchApp{script: in.script, rec: rec}
		if in.script == nil {
			a.inner = server.NewTerminal(sw, sh)
			cols, rows := sw/server.TermGlyphW, sh/server.TermGlyphH
			a.homeEvery = cols * (rows - 1)
		}
		*apps = append(*apps, a)
		return a
	}
}

// serverOptions is the production profile every workload runs: what
// `slimd -flow -codec2` configures, telemetry left at library defaults.
func serverOptions() []slim.ServerOption {
	return []slim.ServerOption{
		slim.WithFlowControl(slim.FlowConfig{}),
		slim.WithCodec2(),
	}
}

func consoleConfig(w workloadSpec) slim.ConsoleConfig {
	return slim.ConsoleConfig{
		Width: w.w, Height: w.h,
		TileCacheEntries: slim.DefaultTileCacheEntries,
	}
}
