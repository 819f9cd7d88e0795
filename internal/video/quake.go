package video

import (
	"math"
	"time"

	"slim/internal/protocol"
	"slim/internal/stats"
)

// QuakeSource models the id Software Quake port of §7.3. The game engine
// renders 8-bit indexed-color frames; a translation layer converts them to
// YUV via a lookup table computed from the RGB colormap, and the frames go
// to the console as 5 bpp CSCS commands.
//
// The synthetic engine renders a textured-floor corridor fly-through —
// cheap, deterministic, and with the dithered, palette-quantized pixel
// statistics of the real renderer.
type QuakeSource struct {
	W, H    int
	Palette [256]protocol.Pixel
	frame   int
	rng     *stats.RNG
	cost    time.Duration
	indexed []byte
	pix     []protocol.Pixel // the surface Next redraws
}

// NewQuake returns a Quake source at the given resolution (the paper uses
// 640x480, 480x360, and 320x240).
func NewQuake(w, h int, seed uint64) *QuakeSource {
	q := &QuakeSource{W: w, H: h, rng: stats.NewRNG(seed), indexed: make([]byte, w*h), pix: make([]protocol.Pixel, w*h)}
	// Quake-ish palette: dark browns, grays, and lava highlights.
	for i := 0; i < 256; i++ {
		switch {
		case i < 128: // browns
			q.Palette[i] = protocol.RGB(uint8(i), uint8(i*3/4), uint8(i/2))
		case i < 192: // grays
			v := uint8((i - 128) * 2)
			q.Palette[i] = protocol.RGB(v, v, v)
		default: // fire
			q.Palette[i] = protocol.RGB(uint8(128+(i-192)*2), uint8((i-192)*2), 16)
		}
	}
	return q
}

// Geometry implements Source.
func (q *QuakeSource) Geometry() (int, int) { return q.W, q.H }

// FrameCost implements Source: engine render time plus the YUV translation
// cost, both scaled from the paper's 640x480 numbers by pixel count.
func (q *QuakeSource) FrameCost() time.Duration { return q.cost }

// RenderIndexed produces the next raw 8-bit frame (the engine's output,
// before translation). The returned slice is reused across calls.
func (q *QuakeSource) RenderIndexed() []byte {
	t := float64(q.frame)
	cx, cy := float64(q.W)/2, float64(q.H)/2
	for y := 0; y < q.H; y++ {
		for x := 0; x < q.W; x++ {
			dx := float64(x) - cx
			dy := float64(y) - cy
			var c int
			if math.Abs(dy) < 2 {
				c = 160 // horizon line
			} else {
				// Perspective floor/ceiling texture: distance-scaled
				// checker with a forward fly-through.
				z := cy / math.Abs(dy)
				u := dx*z/64 + t/7
				v := z + t/9
				check := (int(math.Floor(u)) + int(math.Floor(v))) & 1
				shade := int(96 / z)
				if shade > 100 {
					shade = 100
				}
				c = 20 + shade + check*24
				if dy < 0 {
					c += 128 // ceiling uses the gray band
					if c > 191 {
						c = 191
					}
				}
			}
			// Lava glow flicker in a corner panel.
			if x < q.W/8 && y > q.H*7/8 && q.rng.Float64() < 0.4 {
				c = 192 + q.rng.Intn(64)
			}
			q.indexed[y*q.W+x] = byte(c)
		}
	}
	q.frame++
	px := float64(q.W * q.H)
	scale := px / (640 * 480)
	render := stats.NewRNG(uint64(q.frame)).Range(float64(QuakeRenderCostLo), float64(QuakeRenderCostHi))
	q.cost = time.Duration((render + float64(QuakeTranslateCost640)) * scale)
	return q.indexed
}

// Next implements Source: render a frame and translate it through the
// palette lookup table into RGB (the console's CSCS encode then converts
// to YUV — the same double conversion path the paper's translation layer
// took, with the LUT fused server side). Every pixel of the surface is
// redrawn.
func (q *QuakeSource) Next() Frame {
	for i, c := range q.RenderIndexed() {
		q.pix[i] = q.Palette[c]
	}
	return Frame{W: q.W, H: q.H, Pixels: q.pix}
}

// TransmitCost models the server-side cost of pushing one frame's CSCS
// data to the network, scaled from the paper's 13 ms at 640x480.
func (q *QuakeSource) TransmitCost() time.Duration {
	scale := float64(q.W*q.H) / (640 * 480)
	return time.Duration(float64(QuakeTransmitCost640) * scale)
}
