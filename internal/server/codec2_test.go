package server

import (
	"testing"

	"slim/internal/console"
	"slim/internal/core"
	"slim/internal/fb"
	"slim/internal/obs"
	"slim/internal/protocol"
)

// driveOps pushes display ops through the server's real render/flush
// path to whatever console the session is attached to.
func driveOps(t *testing.T, s *Server, sess *Session, ops []core.Op) {
	t.Helper()
	out := newOutbox()
	s.mu.Lock()
	err := sess.render(out, ops, 0)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.deliver(out); err != nil {
		t.Fatal(err)
	}
}

// repeatedContentOps paints the same photo-class block twice at different
// tile-aligned positions: gen-2 turns the second paint into CACHE_PAINT
// claims, gen-1 re-sends pixels.
func repeatedContentOps() []core.Op {
	pix := make([]protocol.Pixel, core.TileSize*core.TileSize)
	for i := range pix {
		s := (uint32(i) + 11) * 2654435761
		s ^= s >> 13
		pix[i] = protocol.Pixel(s & 0xffffff)
	}
	return []core.Op{
		core.ImageOp{Rect: protocol.Rect{X: 0, Y: 0, W: core.TileSize, H: core.TileSize}, Pixels: pix},
		core.ImageOp{Rect: protocol.Rect{X: 32, Y: 32, W: core.TileSize, H: core.TileSize}, Pixels: pix},
	}
}

func countCachePaintMsgs(msgs []protocol.Message) int {
	n := 0
	for _, m := range msgs {
		if _, ok := m.(*protocol.CachePaint); ok {
			n++
		}
	}
	return n
}

// TestCodec2CapabilityNegotiation pins the mixed-fleet story: one
// server, one console that advertises CapCachePaint and one that does
// not. The capable console's stream carries CACHE_PAINT and replays
// cleanly through a real gen-2 console; the legacy console's stream
// never mentions the command and stays byte-valid for a decoder that
// predates it.
func TestCodec2CapabilityNegotiation(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)

	h2 := hello(64, 64, "card-alice")
	h2.Caps = protocol.CapCachePaint
	if err := s.Handle("g2", h2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("g1", hello(64, 64, "card-bob"), 0); err != nil {
		t.Fatal(err)
	}
	sessA, sessB := s.SessionByUser("alice"), s.SessionByUser("bob")
	if !sessA.Encoder.Codec2Enabled() {
		t.Fatal("capable console attached without codec2")
	}
	if sessB.Encoder.Codec2Enabled() {
		t.Fatal("legacy console attached with codec2")
	}

	ops := repeatedContentOps()
	driveOps(t, s, sessA, ops)
	driveOps(t, s, sessB, ops)

	if n := countCachePaintMsgs(tr.msgsTo(t, "g2")); n == 0 {
		t.Error("gen-2 console's stream carried no CACHE_PAINT for repeated content")
	}
	if n := countCachePaintMsgs(tr.msgsTo(t, "g1")); n != 0 {
		t.Errorf("legacy console's stream carried %d CACHE_PAINTs", n)
	}

	// The legacy stream decodes to exactly the authoritative screen with
	// the gen-1 apply rules alone.
	legacy := fb.New(64, 64)
	tr.renderTo(t, "g1", legacy)
	if !legacy.Equal(sessB.Encoder.FB) {
		t.Error("legacy stream did not decode byte-valid")
	}

	// The gen-2 stream replays through a real console — caches mirrored,
	// zero NACKs, identical screen.
	reg := obs.NewRegistry(obs.DomainWall)
	con, err := console.New(console.Config{Width: 64, Height: 64, TileCacheEntries: core.DefaultTileCacheEntries, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, wire := range tr.sent["g2"] {
		replies, err := con.HandleDatagram(wire, 0)
		if err != nil {
			t.Fatal(err)
		}
		// The one reply due is the grant answering the session's
		// BandwidthRequest (§7).
		_, msg, _, _ := protocol.Decode(wire)
		for _, r := range replies {
			if _, reply, _, _ := protocol.Decode(r); msg.Type() != protocol.TypeBandwidthRequest || reply.Type() != protocol.TypeBandwidthGrant {
				t.Fatalf("gen-2 replay of a %v provoked a %v", msg.Type(), reply.Type())
			}
		}
	}
	if !con.Framebuffer().Equal(sessA.Encoder.FB) {
		t.Error("gen-2 console diverged from the authoritative screen")
	}
	if reg.Counter("slim_console_cache_hits_total").Value() == 0 {
		t.Error("gen-2 replay never hit the console cache")
	}
}

// TestCodec2HotdeskRenegotiates moves one session across consoles of
// different generations: the encoder must drop to gen-1 on a legacy
// console and re-arm (with a fresh cache generation) when the user sits
// back down at a capable one.
func TestCodec2HotdeskRenegotiates(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)

	h2 := hello(64, 64, "card-alice")
	h2.Caps = protocol.CapCachePaint
	if err := s.Handle("deskA", h2, 0); err != nil {
		t.Fatal(err)
	}
	sess := s.SessionByUser("alice")
	if !sess.Encoder.Codec2Enabled() {
		t.Fatal("initial attach did not arm codec2")
	}
	driveOps(t, s, sess, repeatedContentOps())

	// Hotdesk to a console that never advertised the capability.
	if err := s.Handle("deskB", hello(64, 64, ""), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Handle("deskB", &protocol.SessionConnect{Token: "card-alice"}, 0); err != nil {
		t.Fatal(err)
	}
	if sess.Encoder.Codec2Enabled() {
		t.Fatal("codec2 stayed enabled on a legacy console")
	}
	driveOps(t, s, sess, repeatedContentOps())
	if n := countCachePaintMsgs(tr.msgsTo(t, "deskB")); n != 0 {
		t.Fatalf("legacy console received %d CACHE_PAINTs after hotdesk", n)
	}

	// And back to the capable console: a fresh cache generation, since
	// the console's cache reset when its session went away.
	if err := s.Handle("deskA", &protocol.SessionConnect{Token: "card-alice"}, 0); err != nil {
		t.Fatal(err)
	}
	if !sess.Encoder.Codec2Enabled() {
		t.Fatal("codec2 did not re-arm on return to the capable console")
	}
	if sess.Encoder.Codec2Stats().Resets == 0 {
		t.Fatal("re-arm did not start a fresh cache generation")
	}
	// The re-attach repaint may already score hits — in-stream dedup over
	// a mostly-uniform screen — so the proof the cache is fresh is the
	// replay property: the repaint stream must satisfy a cold console.
	mirror := core.NewTileCache(core.DefaultTileCacheEntries, true)
	screen := fb.New(64, 64)
	var claims int
	for _, msg := range tr.msgsTo(t, "deskA") {
		if !msg.Type().IsDisplay() {
			continue
		}
		if cp, ok := msg.(*protocol.CachePaint); ok {
			claims++
			cached, hit := mirror.Lookup(cp.Key, cp.Rect.W, cp.Rect.H)
			if !hit {
				t.Fatalf("stream claims key %#x a cold console cannot hold", cp.Key)
			}
			if err := screen.Set(cp.Rect, cached); err != nil {
				t.Fatal(err)
			}
		} else if err := screen.Apply(msg); err != nil {
			t.Fatal(err)
		}
		mirror.NoteApply(screen, msg)
	}
	if !screen.Equal(sess.Encoder.FB) {
		t.Fatal("deskA's full stream did not replay to the authoritative screen")
	}
}
