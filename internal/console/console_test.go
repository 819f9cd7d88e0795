package console

import (
	"testing"
	"time"

	"slim/internal/core"
	"slim/internal/protocol"
)

func newTestConsole(t *testing.T, costs *core.CostModel) *Console {
	t.Helper()
	c, err := New(Config{Width: 64, Height: 64, Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Width: 0, Height: 10}); err == nil {
		t.Error("zero width accepted")
	}
}

// TestNewRejectsForeignTileCacheCapacity: the server mirrors a gen-2
// console's tile cache at core.DefaultTileCacheEntries, so any other
// capacity would drift the mirrored LRU orders; New refuses it.
func TestNewRejectsForeignTileCacheCapacity(t *testing.T) {
	for _, n := range []int{-1, 1, 16, core.DefaultTileCacheEntries + 1} {
		if _, err := New(Config{Width: 64, Height: 64, TileCacheEntries: n}); err == nil {
			t.Errorf("TileCacheEntries %d accepted", n)
		}
	}
	for _, n := range []int{0, core.DefaultTileCacheEntries} {
		c, err := New(Config{Width: 64, Height: 64, TileCacheEntries: n})
		if err != nil {
			t.Fatalf("TileCacheEntries %d: %v", n, err)
		}
		if armed := c.Hello().Caps&protocol.CapCachePaint != 0; armed != (n > 0) {
			t.Errorf("TileCacheEntries %d: CapCachePaint advertised = %v", n, armed)
		}
	}
}

func TestDisplayCommandRenders(t *testing.T) {
	c := newTestConsole(t, nil)
	wire := protocol.Encode(nil, 1, &protocol.Fill{Rect: protocol.Rect{W: 64, H: 64}, Color: 0xff0000})
	replies, err := c.HandleDatagram(wire, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 0 {
		t.Errorf("in-order display produced replies: %d", len(replies))
	}
	if c.Framebuffer().At(10, 10) != 0xff0000 {
		t.Error("fill not rendered")
	}
	applied, dropped := c.Counters()
	if applied != 1 || dropped != 0 {
		t.Errorf("counters = %d %d", applied, dropped)
	}
}

func TestGapProducesNack(t *testing.T) {
	c, err := New(Config{Width: 64, Height: 64, ReorderWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	fill := &protocol.Fill{Rect: protocol.Rect{W: 4, H: 4}, Color: 1}
	if _, err := c.Handle(1, fill, 0); err != nil {
		t.Fatal(err)
	}
	// Jump to 10: sequences 2..9 are lost beyond the reorder window.
	replies, err := c.Handle(10, fill, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1 nack", len(replies))
	}
	_, msg, _, err := protocol.Decode(replies[0])
	if err != nil {
		t.Fatal(err)
	}
	nack, ok := msg.(*protocol.Nack)
	if !ok || nack.From != 2 || nack.To != 9 {
		t.Errorf("nack = %+v", msg)
	}
}

func TestPingPong(t *testing.T) {
	c := newTestConsole(t, nil)
	replies, err := c.Handle(1, &protocol.Ping{Nonce: 77, Padding: make([]byte, 100)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Fatalf("ping replies = %d", len(replies))
	}
	_, msg, _, _ := protocol.Decode(replies[0])
	pong, ok := msg.(*protocol.Pong)
	if !ok || pong.Nonce != 77 || len(pong.Padding) != 100 {
		t.Errorf("pong = %+v", msg)
	}
}

func TestSessionLifecycle(t *testing.T) {
	c := newTestConsole(t, nil)
	if c.SessionID() != 0 {
		t.Error("fresh console has a session")
	}
	if _, err := c.Handle(1, &protocol.SessionAttach{SessionID: 5}, 0); err != nil {
		t.Fatal(err)
	}
	if c.SessionID() != 5 {
		t.Error("attach ignored")
	}
	if _, err := c.Handle(2, &protocol.SessionDetach{SessionID: 5}, 0); err != nil {
		t.Fatal(err)
	}
	if c.SessionID() != 0 {
		t.Error("detach ignored")
	}
}

func TestCardInsertRemove(t *testing.T) {
	c := newTestConsole(t, nil)
	msg := c.InsertCard("card-x")
	if msg.Token != "card-x" {
		t.Errorf("connect token = %q", msg.Token)
	}
	if c.Hello().CardToken != "card-x" {
		t.Error("hello does not carry the card")
	}
	c.RemoveCard()
	if c.Hello().CardToken != "" {
		t.Error("card not removed")
	}
}

func TestInputEncoding(t *testing.T) {
	c := newTestConsole(t, nil)
	_, msg, _, err := protocol.Decode(c.KeyInput('a', true))
	if err != nil {
		t.Fatal(err)
	}
	k := msg.(*protocol.KeyEvent)
	if k.Code != 'a' || !k.Down {
		t.Errorf("key = %+v", k)
	}
	_, msg, _, err = protocol.Decode(c.PointerInput(10, 20, 1))
	if err != nil {
		t.Fatal(err)
	}
	p := msg.(*protocol.PointerEvent)
	if p.X != 10 || p.Y != 20 || p.Buttons != 1 {
		t.Errorf("pointer = %+v", p)
	}
}

func TestModelledServiceTimeAndOverload(t *testing.T) {
	c := newTestConsole(t, core.SunRay1Costs())
	c.QueueLimit = 10 * time.Millisecond
	// A full-screen SET at 270ns/px on 64x64 = ~1.1ms per command; blast
	// many at the same instant so the queue passes 10ms and drops begin.
	pix := make([]protocol.Pixel, 64*64)
	msg := &protocol.Set{Rect: protocol.Rect{W: 64, H: 64}, Pixels: pix}
	before := c.metrics.simService.Snapshot()
	for i := uint32(1); i <= 40; i++ {
		if _, err := c.Handle(i, msg, 0); err != nil {
			t.Fatal(err)
		}
	}
	applied, dropped := c.Counters()
	if dropped == 0 {
		t.Errorf("no drops under saturation (applied %d)", applied)
	}
	if applied == 0 {
		t.Error("everything dropped")
	}
	// Every applied command lands in the modelled service-time histogram,
	// and each one queues behind the last: the k-th waits k decodes, so
	// the mean is several times one decode.
	svc := c.metrics.simService.Snapshot().Delta(before)
	decode := core.SunRay1Costs().ServiceTime(msg).Seconds()
	if svc.Count != int64(applied) || svc.SumSeconds < 2*decode*float64(applied) {
		t.Errorf("service times not recorded with queueing growth: %d observations (applied %d), mean %.2f ms, one decode %.2f ms",
			svc.Count, applied, 1e3*svc.SumSeconds/float64(max(svc.Count, 1)), 1e3*decode)
	}
	if c.Status().Dropped == 0 {
		t.Error("status does not report drops")
	}
}

func TestUnexpectedMessageRejected(t *testing.T) {
	c := newTestConsole(t, nil)
	if _, err := c.Handle(1, &protocol.KeyEvent{}, 0); err == nil {
		t.Error("console accepted a console→server message")
	}
}

func TestBandwidthRequestGrants(t *testing.T) {
	c, err := New(Config{Width: 8, Height: 8, TotalBps: 100})
	if err != nil {
		t.Fatal(err)
	}
	replies, err := c.Handle(1, &protocol.BandwidthRequest{SessionID: 1, Bps: 60}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	_, msg, _, _ := protocol.Decode(replies[0])
	g := msg.(*protocol.BandwidthGrant)
	if g.SessionID != 1 || g.Bps != 60 {
		t.Errorf("grant = %+v", g)
	}
}

func TestAllocatorSortedGrant(t *testing.T) {
	a := NewBandwidthAllocator(100)
	a.Request(1, 10)
	a.Request(2, 30)
	grants := a.Request(3, 100)
	// Ascending: 10 and 30 granted fully; 3 gets the remaining 60.
	byID := map[uint32]uint64{}
	for _, g := range grants {
		byID[g.SessionID] = g.Bps
	}
	if byID[1] != 10 || byID[2] != 30 || byID[3] != 60 {
		t.Errorf("grants = %v", byID)
	}
}

func TestAllocatorFairShareAmongUnsatisfied(t *testing.T) {
	a := NewBandwidthAllocator(100)
	a.Request(1, 20)
	a.Request(2, 90)
	a.Request(3, 95)
	byID := map[uint32]uint64{}
	for _, g := range a.Grants() {
		byID[g.SessionID] = g.Bps
	}
	// 20 granted; 90 exceeds the remaining 80, so 2 and 3 split 80.
	if byID[1] != 20 || byID[2] != 40 || byID[3] != 40 {
		t.Errorf("grants = %v", byID)
	}
}

func TestAllocatorRelease(t *testing.T) {
	a := NewBandwidthAllocator(100)
	a.Request(1, 80)
	a.Request(2, 80) // contended: each gets a share
	if g := a.GrantFor(2); g == 80 {
		t.Error("no contention applied")
	}
	a.Request(1, 0) // release
	if g := a.GrantFor(2); g != 80 {
		t.Errorf("after release grant = %d, want 80", g)
	}
	if a.Total() != 100 {
		t.Error("total changed")
	}
}

func TestAllocatorDeterministicTies(t *testing.T) {
	// Equal demands: the ascending scan (ties broken by session ID) grants
	// the lower session fully, and the rest share what is left — exactly
	// the paper's "grant one at a time until a request exceeds the
	// available bandwidth" rule.
	a := NewBandwidthAllocator(50)
	a.Request(2, 40)
	grants := a.Request(1, 40)
	byID := map[uint32]uint64{}
	for _, g := range grants {
		byID[g.SessionID] = g.Bps
	}
	if byID[1] != 40 || byID[2] != 10 {
		t.Errorf("tied grants = %v, want 1:40 2:10", byID)
	}
	// And the outcome is stable across recomputation.
	again := map[uint32]uint64{}
	for _, g := range a.Grants() {
		again[g.SessionID] = g.Bps
	}
	if again[1] != 40 || again[2] != 10 {
		t.Errorf("recomputed grants = %v", again)
	}
}
