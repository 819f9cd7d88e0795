package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/obs/flight"
	"slim/internal/protocol"
	"slim/internal/wirebuf"
)

// DefaultMTU is the maximum datagram body size: every encoder cuts to it
// and every bound on its output assumes it. It leaves room for UDP/IP
// headers inside a 1500-byte Ethernet frame, matching the fabric the paper
// ran on.
const DefaultMTU = 1400

// MaxDatagram is the largest datagram the encoder emits, and so the size an
// endpoint packing commands into §5.4 frames fills: a frame never asks
// more of the path than a SET strip already does.
const MaxDatagram = protocol.HeaderSize + DefaultMTU

// Datagram is one framed protocol message ready for transmission.
//
// Aliasing: when wire generation is on, the pixel/bitmap payloads of Msg
// may alias encoder-owned scratch slabs that the next Encode call reuses,
// and a video frame's CSCS strips — message and payload both — are the
// encoder's own, valid until its next Encode, Apply or Repay. Wire is
// always a self-contained marshalled copy; what outlives that (the sent
// log, the server's outbound list until it is flushed) keeps Wire or a
// copy of what it needs of Msg, never Msg itself.
type Datagram struct {
	Seq  uint32
	Msg  protocol.Message
	Wire []byte
	// Buf is the pooled buffer backing Wire (nil when wire generation is
	// skipped). The Datagram's holder is its only owner: handing the
	// datagram on hands Buf on, and the last holder calls ReleaseWire after
	// the transport's Send, or when the command is dropped unsent.
	Buf *wirebuf.Buf
}

// ReleaseWire returns the datagram's pooled wire buffer to the pool. Safe
// to call on datagrams without one; idempotent per Datagram value (a second
// release through a copy of it panics).
func (d *Datagram) ReleaseWire() {
	if d.Buf != nil {
		d.Buf.Release()
		d.Buf = nil
		d.Wire = nil
	}
}

// Encoder is the server-side SLIM display driver. Applications hand it
// rendering Ops; it maintains the authoritative frame buffer (the console's
// copy is only soft state), lowers each op to the cheapest display
// command(s), splits commands to fit the MTU, assigns sequence numbers, and
// keeps per-command accounting.
type Encoder struct {
	// FB is the server's persistent frame buffer for the session.
	FB *fb.Framebuffer
	// SkipWire suppresses datagram marshalling (and the sent log):
	// commands are interpreted and rendered into the authoritative frame
	// buffer but no display data is prepared for the IF — the x11perf
	// "no display data sent" configuration of Table 4.
	SkipWire bool
	// Stats accumulates per-command wire accounting.
	Stats CommandStats
	// Metrics, when non-nil, mirrors Stats into a live obs registry and
	// times Encode calls. The live server attaches it to session encoders;
	// the experiment harness leaves it nil so simulation replays pay
	// nothing for instrumentation.
	Metrics *EncoderMetrics
	// Flight, when non-nil, records every command Encode or Repay
	// returns into the session's flight-recorder ring (seq, type, bytes,
	// pixels), stamped when the call is done: the ENCODE stage of the
	// causal input-to-paint chain. Nil or disabled costs one branch per
	// call.
	Flight *flight.SessionLog

	seq  protocol.Sequencer
	sent sentLog // the geometry of recent commands, for Damage
	left int     // what the Repay in progress may still send; emit spends it
	// codec2 is the gen-2 tile path (content classifier + mirrored tile
	// cache); nil runs the gen-1 command path. See codec2.go.
	codec2 *Codec2

	// Reusable slabs for the wire-generating path. Message payloads
	// (Set.Pixels, Bitmap.Bits, CSCS.Data) and a video frame's strip
	// messages alias these and are valid only until the next Encode call —
	// see the Datagram aliasing contract. SkipWire mode allocates fresh
	// messages and payloads instead, since without a wire the message IS
	// the output.
	setSlab     []protocol.Pixel
	bitSlab     []byte
	bicolorBits []byte
	cscsSlab    []byte          // one video frame's CSCS strip payloads
	strips      []protocol.CSCS // one video frame's CSCS strip messages
	repaintPix  []protocol.Pixel
}

// NewEncoder returns an encoder managing a w×h session frame buffer.
func NewEncoder(w, h int) *Encoder {
	return &Encoder{
		FB:   fb.New(w, h),
		sent: make(sentLog, sentLogCapacity(w, h)),
	}
}

// emit assigns msg the next sequence number and completes its emission:
// marshalling into a pooled wire buffer, logging the geometry for Damage,
// and accounting. The returned Datagram owns the buffer.
func (e *Encoder) emit(msg protocol.Message) Datagram {
	seq := e.seq.Next()
	d, size := Datagram{Seq: seq, Msg: msg}, protocol.WireSize(msg)
	e.left -= size
	if !e.SkipWire {
		buf := wirebuf.Get(size)
		buf.SetBytes(protocol.Encode(buf.Bytes(), seq, msg))
		d.Wire = buf.Bytes()
		d.Buf = buf
		e.sent.record(seq, msg, e.FB.Bounds())
	}
	e.Stats.Record(msg)
	e.Metrics.Record(msg)
	if e.codec2 != nil {
		// Mirrored cache maintenance, in sequence order — the same order
		// the console runs its half of the rule.
		e.codec2.noteEmit(e.FB, msg)
	}
	return d
}

// Encode lowers one rendering op into SLIM datagrams, updating the
// authoritative frame buffer first (Apply's half of the work). One reading
// of the wall clock at its end times the call and stamps the ENCODE of
// every datagram it returns.
func (e *Encoder) Encode(op Op) ([]Datagram, error) {
	var start time.Duration
	if e.Metrics != nil {
		start = obs.Wall.Now()
	}
	dgs, err := e.encode(op)
	if e.Metrics != nil || e.Flight.Armed() {
		end := obs.Wall.Now()
		e.Metrics.ObserveEncode(end - start)
		e.encoded(dgs, end)
	}
	return dgs, err
}

// encoded records the ENCODE of each datagram one call returns, at wall —
// a reading of obs.Wall taken when the call was done with them all.
func (e *Encoder) encoded(dgs []Datagram, wall time.Duration) {
	if !e.Flight.Armed() {
		return
	}
	for _, d := range dgs {
		e.Flight.Encode(wall, d.Seq, d.Msg.Type(), int64(protocol.WireSize(d.Msg)), int64(PixelsOf(d.Msg)))
	}
}

func (e *Encoder) encode(op Op) ([]Datagram, error) {
	if err := validateOp(op); err != nil {
		return nil, err
	}
	if o, ok := op.(VideoOp); ok {
		return e.encodeVideo(o)
	}
	if _, err := e.apply(op); err != nil {
		return nil, err
	}
	switch o := op.(type) {
	case FillOp:
		return []Datagram{e.emit(&protocol.Fill{Rect: o.Rect, Color: o.Color})}, nil
	case TextOp:
		return e.encodeBitmap(nil, o.Rect, o.Fg, o.Bg, o.Bits), nil
	case ScrollOp:
		return []Datagram{e.emit(&protocol.Copy{
			Rect: o.Rect, DstX: o.Rect.X + o.DX, DstY: o.Rect.Y + o.DY,
		})}, nil
	case ImageOp:
		if e.codec2 != nil {
			dgs, _, _ := e.encodeRegion2(nil, o.Rect, false)
			return dgs, nil
		}
		return e.encodeRegion(nil, o.Rect, o.Pixels), nil
	}
	return nil, fmt.Errorf("core: unknown op type %T", op)
}

// encodeRegion is gen-1's lowering of a pixel rectangle to the cheapest
// command sequence, chosen by whole-rect analysis of its pixels. Gen-2
// reads the frame buffer tile by tile instead (encodeRegion2).
func (e *Encoder) encodeRegion(out []Datagram, r protocol.Rect, pixels []protocol.Pixel) []Datagram {
	if c, uniform := analyzeUniform(pixels); uniform {
		return append(out, e.emit(&protocol.Fill{Rect: r, Color: c}))
	}
	if fg, bg, bits, ok := e.analyzeBicolor(r, pixels); ok {
		return e.encodeBitmap(out, r, fg, bg, bits)
	}
	return e.encodeSet(out, r, pixels)
}

// encodeSet splits a literal-pixel rectangle into MTU-sized SET commands,
// appended to out.
func (e *Encoder) encodeSet(out []Datagram, r protocol.Rect, pixels []protocol.Pixel) []Datagram {
	tw, th := setGrid(r.W)
	tiles := tile(r, tw, th)
	out = slices.Grow(out, tiles.n())
	for i := range tiles.n() {
		t := tiles.at(i)
		var sub []protocol.Pixel
		if e.SkipWire {
			// No wire copy is made, so the message owns its payload.
			sub = make([]protocol.Pixel, t.Pixels())
		} else {
			if cap(e.setSlab) < t.Pixels() {
				e.setSlab = make([]protocol.Pixel, t.Pixels())
			}
			sub = e.setSlab[:t.Pixels()]
		}
		copyTile(sub, pixels, r, t)
		out = append(out, e.emit(&protocol.Set{Rect: t, Pixels: sub}))
	}
	return out
}

// setGrid is the largest SET a w-wide rect is cut into: as wide as the
// rect or the MTU holds, as many rows tall as then fit.
func setGrid(w int) (tw, th int) {
	maxPixels := max(1, (DefaultMTU-8)/3) // rect header
	tw = min(max(w, 1), maxPixels)
	return tw, max(1, maxPixels/tw)
}

// copyTile fills dst with tile t's rows out of the pixel rectangle r.
func copyTile(dst []protocol.Pixel, pixels []protocol.Pixel, r, t protocol.Rect) {
	for y := 0; y < t.H; y++ {
		src := (t.Y-r.Y+y)*r.W + (t.X - r.X)
		copy(dst[y*t.W:(y+1)*t.W], pixels[src:src+t.W])
	}
}

// encodeBitmap splits a bicolor rectangle into MTU-sized BITMAP commands,
// appended to out.
func (e *Encoder) encodeBitmap(out []Datagram, r protocol.Rect, fg, bg protocol.Pixel, bits []byte) []Datagram {
	budget := DefaultMTU - 8 - 6 // rect + two colors
	tileW := min(r.W, max(8, budget*8))
	tiles := tile(r, tileW, max(1, budget/protocol.BitmapRowBytes(tileW)))
	srcRow := protocol.BitmapRowBytes(r.W)
	out = slices.Grow(out, tiles.n())
	for i := range tiles.n() {
		t := tiles.at(i)
		tRow := protocol.BitmapRowBytes(t.W)
		var sub []byte
		if e.SkipWire {
			sub = make([]byte, tRow*t.H)
		} else {
			if cap(e.bitSlab) < tRow*t.H {
				e.bitSlab = make([]byte, tRow*t.H)
			}
			sub = e.bitSlab[:tRow*t.H]
		}
		if t.X == r.X && t.W == r.W {
			// Full-width tile (the common case: the byte budget allows
			// thousands of columns): rows are contiguous byte runs.
			copy(sub, bits[(t.Y-r.Y)*srcRow:(t.Y-r.Y+t.H)*srcRow])
		} else {
			for i := range sub {
				sub[i] = 0
			}
			for y := 0; y < t.H; y++ {
				for x := 0; x < t.W; x++ {
					sx := t.X - r.X + x
					sy := t.Y - r.Y + y
					if bits[sy*srcRow+sx/8]&(0x80>>uint(sx%8)) != 0 {
						sub[y*tRow+x/8] |= 0x80 >> uint(x%8)
					}
				}
			}
		}
		out = append(out, e.emit(&protocol.Bitmap{Rect: t, Fg: fg, Bg: bg, Bits: sub}))
	}
	return out
}

// encodeVideo lowers a video frame to CSCS strips that fit the MTU,
// painting them into the frame buffer (paintVideo) before it emits them.
func (e *Encoder) encodeVideo(o VideoOp) ([]Datagram, error) {
	strips, err := e.paintVideo(o, true)
	if err != nil {
		return nil, err
	}
	out := make([]Datagram, 0, len(strips))
	for i := range strips {
		out = append(out, e.emit(&strips[i]))
	}
	return out, nil
}

// videoRows is the strip height encodeVideo cuts o into: the whole frame
// if it fits, else the largest even count whose payload does (payload
// grows with rows; two is the floor). Even heights keep 2x2 chroma blocks
// from straddling a boundary.
func videoRows(o VideoOp) int {
	budget := DefaultMTU - 17 // two rects + format byte
	rows := o.Src.H
	if o.Format.PayloadLen(o.Src.W, rows) > budget {
		for rows = 2; o.Format.PayloadLen(o.Src.W, rows+2) <= budget; rows += 2 {
		}
	}
	return rows
}

// paintVideo cuts a video frame into the CSCS strips the console will
// decode and paints each into the authoritative frame buffer as the
// reconstruction of the codes it quantized, so the server holds exactly
// the lossy pixels the console shows without decoding its own payload.
// With pack it also packs the strips' payloads; without (Apply) it packs
// nothing. The destination is carved proportionally so scaled strips tile
// exactly.
//
// Unless wire generation is off and the strips are the output, they are
// the encoder's own: messages and payloads are cut from slabs sized for
// the whole frame and reused by the next call (the Datagram aliasing
// contract). Every strip is painted before the first is emitted, so no
// strip may reuse another's storage.
func (e *Encoder) paintVideo(o VideoOp, pack bool) ([]protocol.CSCS, error) {
	rows := videoRows(o)
	n := ceilDiv(o.Src.H, rows)
	if cap(e.strips) < n {
		e.strips = make([]protocol.CSCS, n)
	}
	strips := e.strips[:n]
	switch {
	case pack && e.SkipWire:
		// No wire copy is made, so the messages own their storage.
		strips = make([]protocol.CSCS, n)
	case pack:
		need := o.Src.H/rows*o.Format.PayloadLen(o.Src.W, rows) + o.Format.PayloadLen(o.Src.W, o.Src.H%rows)
		if cap(e.cscsSlab) < need {
			e.cscsSlab = make([]byte, 0, need)
		}
		e.cscsSlab = e.cscsSlab[:0]
	}
	for i := range strips {
		y0 := i * rows
		h := min(rows, o.Src.H-y0)
		// Proportional destination band.
		dy0 := o.Dst.Y + y0*o.Dst.H/o.Src.H
		dy1 := o.Dst.Y + (y0+h)*o.Dst.H/o.Src.H
		if dy1 <= dy0 {
			dy1 = dy0 + 1
		}
		m := &strips[i]
		*m = protocol.CSCS{
			Src:    protocol.Rect{X: o.Src.X, Y: o.Src.Y + y0, W: o.Src.W, H: h},
			Dst:    protocol.Rect{X: o.Dst.X, Y: dy0, W: o.Dst.W, H: dy1 - dy0},
			Format: o.Format,
		}
		pix := o.Pixels[y0*o.Src.W : (y0+h)*o.Src.W]
		var err error
		switch {
		case !pack:
			err = e.FB.PaintCSCS(m, pix)
		case e.SkipWire:
			_, err = e.FB.PaintAndPackCSCS(nil, m, pix)
		default:
			e.cscsSlab, err = e.FB.PaintAndPackCSCS(e.cscsSlab, m, pix)
		}
		if err != nil {
			return nil, err
		}
	}
	return strips, nil
}

// Apply paints op into the authoritative frame buffer as Encode would and
// emits nothing: no sequence number, no sent-log record, no tile-cache
// entry. It reports the rect op wrote, clipped to the screen — what a
// session that applied it instead of encoding it owes its console. (Where
// gen-2 would have shipped a churning tile as lossy CSCS, the frame buffer
// keeps the op's own pixels; whichever repaint pays the debt classifies
// them afresh.)
func (e *Encoder) Apply(op Op) (protocol.Rect, error) {
	if err := validateOp(op); err != nil {
		return protocol.Rect{}, err
	}
	return e.apply(op)
}

// apply is Apply on a validated op.
func (e *Encoder) apply(op Op) (protocol.Rect, error) {
	w := op.Bounds()
	var err error
	switch o := op.(type) {
	case FillOp:
		e.FB.Fill(o.Rect, o.Color)
	case TextOp:
		err = e.FB.Bitmap(o.Rect, o.Fg, o.Bg, o.Bits)
	case ScrollOp:
		e.FB.Copy(o.Rect, o.Rect.X+o.DX, o.Rect.Y+o.DY)
		w.X, w.Y = o.Rect.X+o.DX, o.Rect.Y+o.DY
	case ImageOp:
		err = e.FB.Set(o.Rect, o.Pixels)
	case VideoOp:
		_, err = e.paintVideo(o, false)
	}
	return w.Intersect(e.FB.Bounds()), err
}

// WireBound bounds the wire bytes Encode(op) emits, gen-1 or gen-2, cache
// hits or not: 3 bytes a pixel and one SET's framing per command for
// images (the costliest lowering of any pixels, cut the way whichever
// generation cuts finer), the exact strips for video. It reads only op's
// geometry, so a governor can price a paint before anyone encodes it.
func WireBound(op Op) int {
	switch o := op.(type) {
	case FillOp:
		return setFrame + 3
	case ScrollOp:
		return setFrame + 4
	case TextOp:
		budget := DefaultMTU - 8 - 6
		tileW := min(o.Rect.W, max(8, budget*8))
		cols := ceilDiv(o.Rect.W, tileW)
		cmds := cols * ceilDiv(o.Rect.H, max(1, budget/protocol.BitmapRowBytes(tileW)))
		return cmds*(setFrame+6) + (protocol.BitmapRowBytes(o.Rect.W)+cols)*o.Rect.H
	case ImageOp:
		r := o.Rect
		tw, th := setGrid(r.W)
		gen1 := ceilDiv(r.W, tw) * ceilDiv(r.H, th)
		gen2 := ceilDiv(r.W, TileSize) * ceilDiv(r.H, TileSize)
		return max(gen1, gen2)*setFrame + 3*r.Pixels()
	case VideoOp:
		rows := videoRows(o)
		full, rest := o.Src.H/rows, o.Src.H%rows
		n := full * (setFrame + 9 + o.Format.PayloadLen(o.Src.W, rows))
		if rest > 0 {
			n += setFrame + 9 + o.Format.PayloadLen(o.Src.W, rest)
		}
		return n
	}
	return 0
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// TileWire is the most one TileSize² tile costs on the wire: its pixels as
// one literal SET, header and rect (setFrame) included.
const TileWire = setFrame + 3*TileSize*TileSize

const setFrame = protocol.HeaderSize + 8

// Repay repaints what d owes from the authoritative frame buffer, which
// holds the true state (§2.2), and takes what it painted out of d. Past its
// first piece it stops before one whose costliest encoding would take it
// over budget wire bytes — a gen-2 tile where a run of solid tiles ends, or
// rows of a gen-1 rect's SETs — so pieces cost the commands the whole does.
// Each rect's encoder reports the rows of it painted and the band after.
func (e *Encoder) Repay(d *fb.Region, budget int) []Datagram {
	e.left = budget
	var out []Datagram
	for _, r := range d.Rects() {
		c := r.Intersect(e.FB.Bounds())
		var rows, band protocol.Rect
		if e.codec2 != nil {
			out, rows, band = e.encodeRegion2(out, c, true)
		} else {
			out, rows, band = e.repay1(out, c)
		}
		if rows != c {
			d.Subtract(rows)
			d.Subtract(band)
			break
		}
		d.Subtract(r)
	}
	if e.Flight.Armed() {
		e.encoded(out, obs.Wall.Now())
	}
	return out
}

// repay1 is gen-1's Repay of r: what is left of it leaves as one FILL,
// read in place, when it is one colour, else as many rows of its literal
// SETs (encodeSet's grid) as the budget holds — a first piece short of a
// row is one SET — so literal pixels cost the commands of the whole, and a
// piece analysis makes cheaper leaves budget for the next.
func (e *Encoder) repay1(out []Datagram, r protocol.Rect) (_ []Datagram, rows, band protocol.Rect) {
	tw, th := setGrid(r.W)
	row := ceilDiv(r.W, tw)*setFrame + 3*r.W*th
	for rows = (protocol.Rect{X: r.X, Y: r.Y, W: r.W}); rows.H < r.H; rows.H += band.H {
		if len(out) > 0 && e.left < row {
			return out, rows, protocol.Rect{}
		}
		band = protocol.Rect{X: r.X, Y: r.Y + rows.H, W: r.W, H: r.H - rows.H}
		if c, ok := e.FB.Uniform(band); ok {
			out = append(out, e.emit(&protocol.Fill{Rect: band, Color: c}))
			continue
		}
		band.H = min(band.H, max(e.left/row, 1)*th)
		if e.left < row {
			band.W = tw
		}
		// Gen-1's analysis wants the pixels contiguous: they land in an
		// encoder-owned slab that encodeRegion only reads (tile payloads
		// are copies), so the slab never escapes.
		e.repaintPix = e.FB.ReadRectInto(e.repaintPix, band)
		out = e.encodeRegion(out, band, e.repaintPix)
		if band.W < r.W {
			return out, rows, band
		}
	}
	return out, r, protocol.Rect{}
}

// RepaintAll regenerates the entire screen (session attach after
// mobility, or recovery when the console's state is demonstrably lost).
// In both situations the console's tile cache can no longer be trusted
// to mirror the server's model, so gen-2 starts a fresh cache generation
// first; the repaint itself then re-seeds both sides identically.
func (e *Encoder) RepaintAll() []Datagram {
	e.ResetCodec2()
	var all fb.Region
	all.Add(e.FB.Bounds())
	return e.Repay(&all, math.MaxInt)
}

// Damage reports what a console that reported the loss n is missing, as a
// region of the frame buffer. Verbatim replay of just the lost datagrams is
// not safe in general: by the time the Nack arrives the console has already
// applied later commands, and a COPY among them — the one command that
// reads the frame buffer — may have propagated the stale pixels elsewhere.
// The damage is therefore what the lost commands wrote plus the destination
// of every subsequent COPY whose source touched the (transitively growing)
// damage; a lost COPY leaves its source as it was. Non-COPY commands
// applied after the loss drew correct pixels and do not extend it, which
// keeps recovery proportional to what was lost — crucial when recovery
// traffic itself suffers loss. All of it is read from
// the sent log, which holds geometry only — and only of commands that were
// encoded, every one of which goes to the console: a paint the server could
// not send yet was applied (Apply), not encoded, and is owed by region
// before any NACK could name it. ok is false when the range has aged out of
// the log: the whole screen is in doubt, tile cache included (ResetCodec2).
func (e *Encoder) Damage(n protocol.Nack) (damage fb.Region, ok bool) {
	for seq := n.From; seq <= n.To; seq++ {
		r, logged := e.sent.get(seq)
		if !logged {
			return fb.Region{}, false
		}
		if r.key != 0 && e.codec2 != nil {
			// A nacked CACHE_PAINT means the console does not hold (or
			// never received) the entry. Forget the key so the repaint
			// re-sends pixels — which re-seeds both caches — instead of
			// claiming the same hit into a NACK loop.
			e.codec2.cache.Remove(r.key)
		}
		damage.Add(r.rect.rect())
	}
	for seq := n.To + 1; seq <= e.seq.Current(); seq++ {
		r, logged := e.sent.get(seq)
		if !logged {
			return fb.Region{}, false
		}
		if src := r.src.rect(); !src.Empty() && damage.Intersects(src) {
			damage.Add(r.rect.rect())
		}
	}
	return damage, true
}

// WriteRect reports the pixels a display command overwrites: the target
// rect for SET/BITMAP/FILL, the destination for COPY and CSCS. Non-display
// messages report an empty rect.
func WriteRect(msg protocol.Message) protocol.Rect {
	switch m := msg.(type) {
	case *protocol.Set:
		return m.Rect
	case *protocol.Bitmap:
		return m.Rect
	case *protocol.Fill:
		return m.Rect
	case *protocol.Copy:
		return protocol.Rect{X: m.DstX, Y: m.DstY, W: m.Rect.W, H: m.Rect.H}
	case *protocol.CSCS:
		return m.Dst
	case *protocol.CachePaint:
		return m.Rect
	}
	return protocol.Rect{}
}

// ReadRect reports the on-screen pixels a display command reads before
// writing — only COPY does (its source rect). ok is false for commands
// whose output does not depend on current frame-buffer contents.
func ReadRect(msg protocol.Message) (protocol.Rect, bool) {
	if m, isCopy := msg.(*protocol.Copy); isCopy {
		return m.Rect, true
	}
	return protocol.Rect{}, false
}

// LastSeq reports the most recent sequence number issued.
func (e *Encoder) LastSeq() uint32 { return e.seq.Current() }

// ResumeAt continues the encoder's sequence numbering after last. A
// migrated session keeps its ID, and a console resets its gap tracker only
// when the session ID changes — so the importing server's encoder must
// number its first datagram last+1 for the console to stay oblivious. The
// sent log starts empty; a Nack reaching back past the cutover falls back
// to a full repaint, which is always safe.
func (e *Encoder) ResumeAt(last uint32) { e.seq.Resume(last) }

// analyzeUniform reports whether all pixels share one value.
func analyzeUniform(pixels []protocol.Pixel) (protocol.Pixel, bool) {
	if len(pixels) == 0 {
		return 0, false
	}
	c := pixels[0]
	for _, p := range pixels[1:] {
		if p != c {
			return 0, false
		}
	}
	return c, true
}

// analyzeBicolor reports whether the region uses exactly two colors and,
// if so, builds the 1bpp bitmap in the encoder's reusable scratch (the
// bits never escape into a message: encodeBitmap copies them into tile
// payloads). The more frequent color becomes the background, which is the
// convention for text.
func (e *Encoder) analyzeBicolor(r protocol.Rect, pixels []protocol.Pixel) (fg, bg protocol.Pixel, bits []byte, ok bool) {
	if len(pixels) < 2 {
		return 0, 0, nil, false
	}
	c0 := pixels[0]
	var c1 protocol.Pixel
	have1 := false
	n0 := 0
	for _, p := range pixels {
		switch {
		case p == c0:
			n0++
		case !have1:
			c1, have1 = p, true
		case p != c1:
			return 0, 0, nil, false
		}
	}
	if !have1 {
		return 0, 0, nil, false // uniform; caller should have used FILL
	}
	bg, fg = c0, c1
	if n0 < len(pixels)-n0 {
		bg, fg = c1, c0
	}
	rowBytes := protocol.BitmapRowBytes(r.W)
	if cap(e.bicolorBits) < rowBytes*r.H {
		e.bicolorBits = make([]byte, rowBytes*r.H)
	}
	bits = e.bicolorBits[:rowBytes*r.H]
	for i := range bits {
		bits[i] = 0
	}
	for y := 0; y < r.H; y++ {
		row := pixels[y*r.W : (y+1)*r.W]
		brow := bits[y*rowBytes:]
		for x, p := range row {
			if p == fg {
				brow[x/8] |= 0x80 >> uint(x%8)
			}
		}
	}
	return fg, bg, bits, true
}

// tiling is r cut into a grid of tiles at most w wide and h tall, in row
// order — computed tile by tile, so encoding a rect allocates no list of
// its tiles.
type tiling struct {
	r          protocol.Rect
	w, h, cols int
}

func tile(r protocol.Rect, maxW, maxH int) tiling {
	return tiling{r: r, w: maxW, h: maxH, cols: ceilDiv(r.W, maxW)}
}

// n is the number of tiles.
func (t tiling) n() int { return t.cols * ceilDiv(t.r.H, t.h) }

// at is tile i.
func (t tiling) at(i int) protocol.Rect {
	x, y := t.r.X+i%t.cols*t.w, t.r.Y+i/t.cols*t.h
	return protocol.Rect{X: x, Y: y, W: min(t.w, t.r.X+t.r.W-x), H: min(t.h, t.r.Y+t.r.H-y)}
}
