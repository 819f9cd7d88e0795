package core

import "slim/internal/protocol"

// rect16 is a rectangle packed the way the wire packs one: four 16-bit
// fields. Everything the log stores is clipped to the frame buffer first,
// so the fields cannot overflow.
type rect16 struct{ x, y, w, h uint16 }

func packRect(r protocol.Rect) rect16 {
	return rect16{uint16(r.X), uint16(r.Y), uint16(r.W), uint16(r.H)}
}

func (r rect16) rect() protocol.Rect {
	return protocol.Rect{X: int(r.x), Y: int(r.y), W: int(r.w), H: int(r.h)}
}

// sentRecord is what the encoder remembers of one emitted command: enough
// geometry to work out what a console that never applied it is missing, and
// nothing of what was sent — no message, no payload, no wire.
type sentRecord struct {
	key  uint64 // CACHE_PAINT's key, 0 for every other command
	seq  uint32 // 0 marks a slot never written (sequence numbers start at 1)
	rect rect16 // every pixel the command writes (COPY: its destination)
	src  rect16 // COPY's source rect, empty for every other command
}

// sentLog is the encoder's per-session memory of what it sent, a ring
// indexed by sequence number whose length is a power of two. That length
// is how far back a NACK can be answered by region; a range that has aged
// out gets a full repaint.
type sentLog []sentRecord

// minSentLog is the log's floor, the depth of the fixed ring it replaced:
// how many commands a session issues while a NACK is on its way is set by
// the application (video strips, echoes), not by the screen.
const minSentLog = 4096

// sentLogCapacity sizes the log from the screen: the power of two at or
// above twice the gen-2 tiles per screen, so a full attach repaint (one
// command per tile) and as much again of later traffic stay answerable
// by region — 16,384 records at 1280×1024 — and never under minSentLog.
func sentLogCapacity(w, h int) int {
	tiles := ((w + TileSize - 1) / TileSize) * ((h + TileSize - 1) / TileSize)
	n := minSentLog
	for n < 2*tiles {
		n <<= 1
	}
	return n
}

func (l sentLog) slot(seq uint32) *sentRecord { return &l[int(seq)&(len(l)-1)] }

// record notes msg as sent under seq, overwriting whichever older command
// shared the slot. Rects are clipped to bounds.
func (l sentLog) record(seq uint32, msg protocol.Message, bounds protocol.Rect) {
	r := sentRecord{seq: seq, rect: packRect(WriteRect(msg).Intersect(bounds))}
	switch m := msg.(type) {
	case *protocol.Copy:
		r.src = packRect(m.Rect.Intersect(bounds))
	case *protocol.CachePaint:
		r.key = m.Key
	}
	*l.slot(seq) = r
}

// get returns seq's record if the log still holds it.
func (l sentLog) get(seq uint32) (*sentRecord, bool) {
	r := l.slot(seq)
	if r.seq != seq || seq == 0 {
		return nil, false
	}
	return r, true
}
