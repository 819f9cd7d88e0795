// Package video implements the multimedia substrate of §7: synthetic
// stand-ins for the paper's MPEG-II player, live NTSC video, and Quake,
// plus the streaming pipeline that carries their frames to a console with
// the CSCS command.
//
// The real applications are unavailable (and their decode costs belong to
// 1999 hardware anyway), so each source pairs synthetic frame content with
// a *server cost model* calibrated to the paper: MPEG-II decode consumes an
// entire CPU at ~20 Hz, NTSC JPEG decompression at 16–20 Hz depending on
// content, and Quake pays ~30 ms/frame for YUV translation plus ~13 ms for
// transmission at 640x480. The experiments then ask the same question the
// paper did: given those costs, the console's protocol processing limits,
// and the fabric, what frame rate survives end to end?
//
// The modelled costs are what the experiments charge; what the sources
// really spend drawing is kept small so it does not crowd out the protocol
// path under test. The MPEG-II stand-in draws a 720x480 frame in one pass
// in 0.64 ms, against 3.8 ms for the per-pixel formula it replaced, which
// its test keeps as the reference (BenchmarkHotpath_MPEG2Next, 2-vCPU Xeon
// VM).
package video

import (
	"time"

	"slim/internal/protocol"
	"slim/internal/stats"
)

// Frame is one RGB video frame.
type Frame struct {
	W, H   int
	Pixels []protocol.Pixel
}

// Source produces frames and models their per-frame server-side cost
// (decode, capture, or game rendering — everything before SLIM encoding).
type Source interface {
	// Next returns the next frame.
	Next() Frame
	// FrameCost reports the modelled server CPU time consumed producing
	// the most recent frame.
	FrameCost() time.Duration
	// Geometry reports the source resolution.
	Geometry() (w, h int)
}

// Reference server-cost constants, calibrated to §7 (times are for one
// 336 MHz UltraSPARC-II).
const (
	// MPEG2DecodeCost is per 720x480 frame: disk I/O plus MPEG-II
	// decompression "nearly consumes an entire CPU" at 20 Hz.
	MPEG2DecodeCost = 48 * time.Millisecond
	// NTSCDecodeCostLo/Hi bound per-field JPEG decompression (16–20 Hz,
	// "depending on characteristics of the video").
	NTSCDecodeCostLo = 50 * time.Millisecond
	NTSCDecodeCostHi = 62 * time.Millisecond
	// QuakeTranslateCost640 is the 8-bit→YUV lookup translation at
	// 640x480 ("roughly 30ms/frame"); it scales linearly with pixels.
	QuakeTranslateCost640 = 30 * time.Millisecond
	// QuakeTransmitCost640 is the transmission cost at 640x480
	// ("13ms/frame"); also linear in bytes sent.
	QuakeTransmitCost640 = 13 * time.Millisecond
	// QuakeRenderCostLo/Hi bound the engine's own software rendering per
	// 640x480 frame, varying with scene complexity.
	QuakeRenderCostLo = 4 * time.Millisecond
	QuakeRenderCostHi = 11 * time.Millisecond
)

// mpeg2Source synthesizes a 720x480 movie: a smoothly panning gradient
// scene with a moving high-contrast subject, roughly the pixel statistics
// of natural video.
type mpeg2Source struct {
	w, h  int
	frame int
	rng   *stats.RNG
	cost  time.Duration
	cols  []protocol.Pixel // Next's scratch: a row's colors for each band parity
}

// NewMPEG2 returns the stored-video source of §7.1 (720x480).
func NewMPEG2(seed uint64) Source {
	return &mpeg2Source{w: 720, h: 480, rng: stats.NewRNG(seed)}
}

func (s *mpeg2Source) Geometry() (int, int) { return s.w, s.h }

func (s *mpeg2Source) FrameCost() time.Duration { return s.cost }

// mpeg2Blob is the radius of the source's moving subject: a pixel is in
// the blob when its squared distance from the center is under its square.
const mpeg2Blob = 40

// Next draws the frame in one pass. Red is a function of the column,
// green of the row, and the blue checker of the column's and the row's
// 32-pixel band parities, so a row is the column colors (two sets, one
// per row parity, made once a frame) with the row's green laid over
// them; the blob is then drawn inside its bounding box only.
func (s *mpeg2Source) Next() Frame {
	w, h := s.w, s.h
	f := Frame{W: w, H: h, Pixels: make([]protocol.Pixel, w*h)}
	t := s.frame
	// Panning background plus a moving bright blob.
	if len(s.cols) != 2*w {
		s.cols = make([]protocol.Pixel, 2*w)
	}
	even, odd := s.cols[:w], s.cols[w:]
	for x := range even {
		r := uint8((x + t*2) * 255 / (w + 120))
		band := uint8(x>>5&1) * 64
		even[x] = protocol.RGB(r, 0, 128+band)
		odd[x] = protocol.RGB(r, 0, 192-band)
	}
	for y := 0; y < h; y++ {
		cols := even
		if (y>>5+t>>3)&1 != 0 {
			cols = odd
		}
		g := protocol.RGB(0, uint8((y+t)*255/(h+60)), 0)
		row := f.Pixels[y*w : (y+1)*w]
		for x, c := range cols {
			row[x] = c | g
		}
	}
	bx, by := (t*7)%w, (t*3)%h
	for y := max(0, by-mpeg2Blob+1); y < min(h, by+mpeg2Blob); y++ {
		dy := y - by
		row := f.Pixels[y*w : (y+1)*w]
		for x := max(0, bx-mpeg2Blob+1); x < min(w, bx+mpeg2Blob); x++ {
			if dx := x - bx; dx*dx+dy*dy < mpeg2Blob*mpeg2Blob {
				row[x] = protocol.RGB(250, 240, 200)
			}
		}
	}
	s.frame++
	// Mild content-dependent cost jitter.
	s.cost = MPEG2DecodeCost + time.Duration(s.rng.Range(-2e6, 2e6))
	return f
}

// ntscSource synthesizes interlaced capture fields: 640x240, scaled to
// 640x480 at the console (§7.2).
type ntscSource struct {
	w, h  int
	frame int
	rng   *stats.RNG
	cost  time.Duration
}

// NewNTSC returns the live-video source of §7.2 (640x240 fields).
func NewNTSC(seed uint64) Source {
	return &ntscSource{w: 640, h: 240, rng: stats.NewRNG(seed)}
}

func (s *ntscSource) Geometry() (int, int) { return s.w, s.h }

func (s *ntscSource) FrameCost() time.Duration { return s.cost }

func (s *ntscSource) Next() Frame {
	f := Frame{W: s.w, H: s.h, Pixels: make([]protocol.Pixel, s.w*s.h)}
	t := s.frame
	for y := 0; y < s.h; y++ {
		for x := 0; x < s.w; x++ {
			// Camera noise over a slowly changing scene.
			base := uint8(96 + 32*((x>>6+y>>4+t>>2)&3))
			n := uint8(s.rng.Intn(24))
			f.Pixels[y*s.w+x] = protocol.RGB(base+n, base, base-n/2)
		}
	}
	s.frame++
	// JPEG decompression cost varies with content (16–20 Hz).
	s.cost = NTSCDecodeCostLo + time.Duration(s.rng.Range(0, float64(NTSCDecodeCostHi-NTSCDecodeCostLo)))
	return f
}
