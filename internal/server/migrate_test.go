package server

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"slim/internal/fb"
	"slim/internal/flow"
	"slim/internal/protocol"
)

// migrateSession builds a populated session on a fresh server and exports
// it: attach, type some text (so the frame buffer and sequence counter
// both move past their initial state), then freeze.
func migrateSession(t *testing.T, text string) *SessionSnapshot {
	t.Helper()
	tr := newMemTransport()
	src := newTestServer(tr)
	if err := src.Handle("c-src", hello(96, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	for _, ch := range text {
		if err := src.Handle("c-src", &protocol.KeyEvent{Code: uint16(ch), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
	}
	sn, err := src.ExportSession("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if src.SessionCount() != 0 {
		t.Fatalf("exporting server still holds %d sessions", src.SessionCount())
	}
	return sn
}

// importAndAttach replays a snapshot into a fresh server and re-attaches a
// console, returning the transport so the caller can inspect the wire.
func importAndAttach(t *testing.T, sn *SessionSnapshot, console string) (*Server, *memTransport) {
	t.Helper()
	tr := newMemTransport()
	dst := newTestServer(tr)
	if err := dst.ImportSession(sn); err != nil {
		t.Fatal(err)
	}
	// The broker's redirect: the console re-announces its geometry with a
	// bare Hello, then the broker (already authenticated) attaches it.
	if err := dst.Handle(console, hello(sn.W, sn.H, ""), 0); err != nil {
		t.Fatal(err)
	}
	if err := dst.Attach(console, sn.User, 0); err != nil {
		t.Fatal(err)
	}
	return dst, tr
}

// TestMigrationReplayDeterministic is the cutover guarantee: the same
// snapshot replayed into two fresh servers produces byte-identical wire on
// re-attach — same session ID, same resumed sequence numbers, same repaint
// bytes. Whichever shard a broker picks, the console sees the same stream.
func TestMigrationReplayDeterministic(t *testing.T) {
	sn := migrateSession(t, "hello, fleet")
	_, trB := importAndAttach(t, sn, "c-dst")
	_, trC := importAndAttach(t, sn, "c-dst")
	b, c := trB.sent["c-dst"], trC.sent["c-dst"]
	if len(b) == 0 || len(b) != len(c) {
		t.Fatalf("replayed wire streams differ in length: %d vs %d", len(b), len(c))
	}
	for i := range b {
		if !bytes.Equal(b[i], c[i]) {
			t.Fatalf("datagram %d differs across identical replays:\n%x\n%x", i, b[i], c[i])
		}
	}
}

// TestMigrationPreservesScreenAndSequence checks the console-transparency
// invariants one by one: the re-attach repaint rebuilds exactly the
// exported pixels, the session keeps its ID (the console's gap tracker
// resets only on an ID change), and the encoder resumes numbering at
// LastSeq+1 so the stream never appears to restart.
func TestMigrationPreservesScreenAndSequence(t *testing.T) {
	sn := migrateSession(t, "migrate me")
	dst, tr := importAndAttach(t, sn, "c-dst")

	sess := dst.SessionByUser("alice")
	if sess == nil || sess.ID != sn.ID {
		t.Fatalf("imported session = %+v, want ID %d preserved", sess, sn.ID)
	}

	var attach *protocol.SessionAttach
	minSeq := uint32(0)
	for _, wire := range tr.sent["c-dst"] {
		seq, msg, _, err := protocol.Decode(wire)
		if err != nil {
			t.Fatal(err)
		}
		if m, ok := msg.(*protocol.SessionAttach); ok {
			attach = m
		}
		if msg.Type().IsDisplay() && (minSeq == 0 || seq < minSeq) {
			minSeq = seq
		}
	}
	if attach == nil || attach.SessionID != sn.ID {
		t.Fatalf("re-attach announced session %+v, want %d", attach, sn.ID)
	}
	if minSeq != sn.LastSeq+1 {
		t.Errorf("first post-cutover display seq = %d, want LastSeq+1 = %d",
			minSeq, sn.LastSeq+1)
	}

	screen := fb.New(sn.W, sn.H)
	tr.renderTo(t, "c-dst", screen)
	for i, px := range sn.Pixels {
		if screen.Pix[i] != px {
			t.Fatalf("pixel %d = %v after replay, want %v (exported)", i, screen.Pix[i], px)
		}
	}
}

// TestMigrationQuiesceAndStaleNack covers the flow-control cutover: export
// revokes the governor's grant and drains its queue, and a NACK for a
// pre-cutover sequence range — the importing server's sent log starts
// empty — falls back to a full repaint instead of failing.
func TestMigrationQuiesceAndStaleNack(t *testing.T) {
	trA := newMemTransport()
	src, _ := newFlowServer(t, trA, flow.Config{InitialBps: 1_000_000, BurstBytes: 9000})
	if err := src.Handle("c1", hello(64, 64, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	sess := src.SessionByUser("alice")
	if err := src.Handle("c1", &protocol.BandwidthGrant{SessionID: sess.ID, Bps: 8_000}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := src.Handle("c1", &protocol.KeyEvent{Code: uint16('a' + i%26), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
	}
	gov := sess.Governor()
	if gov.QueueDepth() == 0 {
		t.Fatal("flood did not queue damage; quiesce has nothing to prove")
	}
	lastSeq := sess.Encoder.LastSeq()
	sn, err := src.ExportSession("alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if gov.QueueDepth() != 0 {
		t.Errorf("quiesce left %d items queued", gov.QueueDepth())
	}
	// The console was detached on export.
	var detached bool
	for _, msg := range trA.msgsTo(t, "c1") {
		if m, ok := msg.(*protocol.SessionDetach); ok && m.SessionID == sn.ID {
			detached = true
		}
	}
	if !detached {
		t.Error("export did not send SessionDetach to the displaced console")
	}

	trB := newMemTransport()
	dst, _ := newFlowServer(t, trB, flow.Config{InitialBps: 1_000_000, BurstBytes: 1 << 20})
	if err := dst.ImportSession(sn); err != nil {
		t.Fatal(err)
	}
	if err := dst.Handle("c1", hello(64, 64, ""), 0); err != nil {
		t.Fatal(err)
	}
	if err := dst.Attach("c1", "alice", 0); err != nil {
		t.Fatal(err)
	}
	// Re-arm the governor and release the attach repaint.
	if err := dst.Handle("c1", &protocol.BandwidthGrant{SessionID: sn.ID, Bps: 1 << 30}, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.PumpFlows(time.Second); err != nil {
		t.Fatal(err)
	}
	// A NACK for traffic the old shard sent: nothing in the new sent
	// log covers it, so recovery degrades to a full repaint — always
	// correct, never an error.
	before := len(trB.sent["c1"])
	if err := dst.Handle("c1", &protocol.Nack{From: lastSeq - 2, To: lastSeq}, time.Second); err != nil {
		t.Fatalf("stale cross-cutover nack errored: %v", err)
	}
	if _, _, err := dst.PumpFlows(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(trB.sent["c1"]) == before {
		t.Error("stale nack produced no recovery traffic (want full-repaint fallback)")
	}
}

// TestImportRejectsBadSnapshots: ImportSession rejects corrupt or
// conflicting snapshots, and exporting a missing user fails cleanly.
func TestImportRejectsBadSnapshots(t *testing.T) {
	sn := migrateSession(t, "persist")
	dst, _ := importAndAttach(t, sn, "c-dst")
	// Same user again: rejected.
	if err := dst.ImportSession(sn); err == nil || !strings.Contains(err.Error(), "already has a session") {
		t.Errorf("duplicate-user import error = %v", err)
	}
	// Truncated pixels: rejected before any state changes.
	bad := *sn
	bad.User = "bob"
	bad.Pixels = bad.Pixels[:10]
	if err := dst.ImportSession(&bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt-snapshot import error = %v", err)
	}
	// ID 0 is the console table's "no session": rejected.
	bad = *sn
	bad.User, bad.ID = "bob", 0
	if err := dst.ImportSession(&bad); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("zero-ID import error = %v", err)
	}
	// Unknown user: export fails cleanly.
	if _, err := dst.ExportSession("nobody", 0); err == nil {
		t.Error("exporting a missing user succeeded")
	}
}
