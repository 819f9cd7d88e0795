// Package vnc implements a client-demand remote display in the style of
// Virtual Network Computing (§8.3): the viewer periodically requests the
// current state of the frame buffer, and the server responds with the
// pixels that changed since the last request.
//
// The paper contrasts this pull model with SLIM's push model: pulling
// scales to arbitrary bandwidths and coalesces overwritten pixels, but the
// server must either maintain complex state or compute large deltas, and
// interactive performance is "noticeably inferior" even on fast networks
// because every update waits for the next poll. The Compare experiment in
// internal/experiments quantifies exactly that trade.
package vnc

import (
	"encoding/binary"
	"fmt"

	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/protocol"
)

// Encoding selects how rectangle payloads are encoded.
type Encoding uint8

// Encodings. Raw is the baseline 3-bytes-per-pixel transfer; RLE is a
// simple run-length encoding in the spirit of RRE/hextile, which collapses
// the solid areas GUI content is full of.
const (
	EncodingRaw Encoding = iota
	EncodingRLE
)

func (e Encoding) String() string {
	switch e {
	case EncodingRaw:
		return "raw"
	case EncodingRLE:
		return "rle"
	}
	return fmt.Sprintf("Encoding(%d)", uint8(e))
}

// rectHeader is the per-rectangle wire overhead: geometry (8) + encoding
// type (1) + payload length (4).
const rectHeader = 13

// RectUpdate is one changed rectangle in a framebuffer update.
type RectUpdate struct {
	Rect     protocol.Rect
	Encoding Encoding
	Payload  []byte
}

// WireBytes reports the rectangle's on-the-wire size.
func (r RectUpdate) WireBytes() int { return rectHeader + len(r.Payload) }

// Update is the server's response to one client pull.
type Update struct {
	Rects []RectUpdate
}

// WireBytes reports the update's total transfer size (plus a small
// response header).
func (u Update) WireBytes() int {
	n := 4 // update header: rect count
	for _, r := range u.Rects {
		n += r.WireBytes()
	}
	return n
}

// Pixels reports how many pixels the update covers.
func (u Update) Pixels() int {
	n := 0
	for _, r := range u.Rects {
		n += r.Rect.Pixels()
	}
	return n
}

// Server owns the authoritative frame buffer and tracks exact damage
// between client pulls — the "maintaining complex state or calculating a
// large delta" cost the paper attributes to the pull model.
type Server struct {
	enc    *core.Encoder
	damage fb.Region
}

// NewServer returns a VNC-style server with a w×h frame buffer.
func NewServer(w, h int) *Server {
	return &Server{enc: core.NewEncoder(w, h)}
}

// FB exposes the authoritative frame buffer.
func (s *Server) FB() *fb.Framebuffer { return s.enc.FB }

// Render applies one rendering operation to the frame buffer, recording
// damage: the rect it wrote joins what the next pull owes the client.
// Nothing is encoded; transfers happen on pull.
func (s *Server) Render(op core.Op) error {
	w, err := s.enc.Apply(op)
	if err != nil {
		return err
	}
	s.damage.Add(w)
	return nil
}

// Pull answers a client framebuffer-update request: every rectangle
// changed since the previous pull, encoded as requested. Damage resets.
func (s *Server) Pull(enc Encoding) (Update, error) {
	var u Update
	rects := s.damage.Rects()
	s.damage.Clear()
	for _, r := range rects {
		payload, err := encodeRect(s.enc.FB, r, enc)
		if err != nil {
			return Update{}, err
		}
		u.Rects = append(u.Rects, RectUpdate{Rect: r, Encoding: enc, Payload: payload})
	}
	return u, nil
}

// FullUpdate encodes the entire frame buffer (initial connection).
func (s *Server) FullUpdate(enc Encoding) (Update, error) {
	r := s.enc.FB.Bounds()
	payload, err := encodeRect(s.enc.FB, r, enc)
	if err != nil {
		return Update{}, err
	}
	return Update{Rects: []RectUpdate{{Rect: r, Encoding: enc, Payload: payload}}}, nil
}

func encodeRect(f *fb.Framebuffer, r protocol.Rect, enc Encoding) ([]byte, error) {
	pixels := f.ReadRect(r)
	switch enc {
	case EncodingRaw:
		out := make([]byte, 0, 3*len(pixels))
		for _, p := range pixels {
			out = append(out, p.R(), p.G(), p.B())
		}
		return out, nil
	case EncodingRLE:
		return encodeRLE(pixels), nil
	default:
		return nil, fmt.Errorf("vnc: unknown encoding %d", enc)
	}
}

// encodeRLE packs row-major runs as [count uint16][r g b].
func encodeRLE(pixels []protocol.Pixel) []byte {
	var out []byte
	for i := 0; i < len(pixels); {
		j := i + 1
		for j < len(pixels) && pixels[j] == pixels[i] && j-i < 0xffff {
			j++
		}
		var cnt [2]byte
		binary.BigEndian.PutUint16(cnt[:], uint16(j-i))
		out = append(out, cnt[:]...)
		out = append(out, pixels[i].R(), pixels[i].G(), pixels[i].B())
		i = j
	}
	return out
}

// RLEFromRaw converts a raw (3 bytes/pixel) payload to the RLE encoding.
func RLEFromRaw(raw []byte) []byte {
	pixels := make([]protocol.Pixel, len(raw)/3)
	for i := range pixels {
		pixels[i] = protocol.RGB(raw[3*i], raw[3*i+1], raw[3*i+2])
	}
	return encodeRLE(pixels)
}

// decodeRLE expands an RLE payload to exactly n pixels.
func decodeRLE(payload []byte, n int) ([]protocol.Pixel, error) {
	out := make([]protocol.Pixel, 0, n)
	for i := 0; i+5 <= len(payload); i += 5 {
		cnt := int(binary.BigEndian.Uint16(payload[i:]))
		p := protocol.RGB(payload[i+2], payload[i+3], payload[i+4])
		for k := 0; k < cnt; k++ {
			out = append(out, p)
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("vnc: RLE decoded %d pixels, want %d", len(out), n)
	}
	return out, nil
}

// Client is the viewer: a frame buffer updated by pulls.
type Client struct {
	FB *fb.Framebuffer
}

// NewClient returns a viewer with a w×h frame buffer.
func NewClient(w, h int) *Client {
	return &Client{FB: fb.New(w, h)}
}

// Apply renders an update into the viewer's frame buffer.
func (c *Client) Apply(u Update) error {
	for _, ru := range u.Rects {
		var pixels []protocol.Pixel
		switch ru.Encoding {
		case EncodingRaw:
			if len(ru.Payload) != 3*ru.Rect.Pixels() {
				return fmt.Errorf("vnc: raw rect %v has %d payload bytes", ru.Rect, len(ru.Payload))
			}
			pixels = make([]protocol.Pixel, ru.Rect.Pixels())
			for i := range pixels {
				pixels[i] = protocol.RGB(ru.Payload[3*i], ru.Payload[3*i+1], ru.Payload[3*i+2])
			}
		case EncodingRLE:
			var err error
			pixels, err = decodeRLE(ru.Payload, ru.Rect.Pixels())
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("vnc: unknown encoding %d", ru.Encoding)
		}
		if err := c.FB.Set(ru.Rect, pixels); err != nil {
			return err
		}
	}
	return nil
}
