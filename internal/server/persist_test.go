package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"testing"

	"slim/internal/fb"
	"slim/internal/protocol"
)

func TestSaveLoadSessions(t *testing.T) {
	tr := newMemTransport()
	s := newTestServer(tr)
	if err := s.Handle("c1", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	for _, ch := range "durable state\nsecond line" {
		if err := s.Handle("c1", &protocol.KeyEvent{Code: uint16(ch), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
	}
	before := s.SessionByUser("alice")
	beforeFB := before.Encoder.FB.Snapshot()
	beforeCol, beforeRow := before.App.(*Terminal).Cursor()

	var buf bytes.Buffer
	if err := s.SaveSessions(&buf); err != nil {
		t.Fatal(err)
	}

	// A freshly started server (the upgrade scenario).
	tr2 := newMemTransport()
	s2 := newTestServer(tr2)
	if err := s2.LoadSessions(&buf); err != nil {
		t.Fatal(err)
	}
	sess := s2.SessionByUser("alice")
	if sess == nil || sess.ID != before.ID {
		t.Fatal("session not restored")
	}
	if sess.Console != "" {
		t.Error("restored session attached to a ghost console")
	}
	if !sess.Encoder.FB.Equal(beforeFB) {
		t.Error("frame buffer not restored")
	}
	col, row := sess.App.(*Terminal).Cursor()
	if col != beforeCol || row != beforeRow {
		t.Errorf("cursor = %d,%d want %d,%d", col, row, beforeCol, beforeRow)
	}

	// Alice badges in at a new console: the repaint reproduces her screen
	// and typing resumes where she left off.
	if err := s2.Handle("c9", hello(320, 200, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	screen := fb.New(320, 200)
	tr2.renderTo(t, "c9", screen)
	if !screen.Equal(beforeFB) {
		t.Error("console repaint after restart diverged")
	}
	if err := s2.Handle("c9", &protocol.KeyEvent{Code: '!', Down: true}, 0); err != nil {
		t.Fatal(err)
	}

	// New sessions get IDs beyond the restored ones.
	if err := s2.Handle("c9", &protocol.SessionConnect{Token: "card-bob"}, 0); err != nil {
		t.Fatal(err)
	}
	if bob := s2.SessionByUser("bob"); bob.ID <= before.ID {
		t.Errorf("new session ID %d collides with restored %d", bob.ID, before.ID)
	}
}

// TestStateFileIsAFunctionOfTheSessions saves one unchanged 8-session
// server twice and requires equal bytes, with the sessions in arrival
// order (a session terminated from the middle leaves the rest in theirs),
// and requires a server loaded from the file to save it back unchanged.
func TestStateFileIsAFunctionOfTheSessions(t *testing.T) {
	s := newTestServer(newMemTransport())
	var users []string
	for i := range 9 {
		user := fmt.Sprintf("user-%d", i)
		s.Auth.Register("card-"+user, user)
		desk := fmt.Sprintf("desk-%d", i)
		if err := s.Handle(desk, hello(64, 48, "card-"+user), 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Handle(desk, &protocol.KeyEvent{Code: uint16('a' + i), Down: true}, 0); err != nil {
			t.Fatal(err)
		}
		users = append(users, user)
	}
	if err := s.Terminate(users[3]); err != nil {
		t.Fatal(err)
	}
	users = slices.Delete(users, 3, 4)

	save := func(s *Server) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := s.SaveSessions(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := save(s), save(s)
	if !bytes.Equal(first, second) {
		t.Fatal("two saves of an unchanged server wrote different bytes")
	}
	var img serverImage
	if err := gob.NewDecoder(bytes.NewReader(first)).Decode(&img); err != nil {
		t.Fatal(err)
	}
	var saved []string
	for _, sn := range img.Sessions {
		saved = append(saved, sn.User)
	}
	if !slices.Equal(saved, users) {
		t.Errorf("saved %v, want arrival order %v", saved, users)
	}
	loaded := newTestServer(newMemTransport())
	if err := loaded.LoadSessions(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(loaded), first) {
		t.Error("a loaded server saves a different file")
	}
}

func TestLoadSessionsValidates(t *testing.T) {
	s := newTestServer(newMemTransport())
	if err := s.LoadSessions(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("junk accepted")
	}
	// Non-empty server refuses to load.
	if err := s.Handle("c1", hello(32, 32, "card-alice"), 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.SaveSessions(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadSessions(&buf); err == nil {
		t.Error("load into non-empty server accepted")
	}
}

func TestTerminalRestoreStateValidates(t *testing.T) {
	term := NewTerminal(160, 64)
	if err := term.RestoreState([]byte{1}); err == nil {
		t.Error("short state accepted")
	}
	// Out-of-range cursor clamps.
	if err := term.RestoreState([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
		t.Fatal(err)
	}
	col, row := term.Cursor()
	if col >= 160/TermGlyphW || row >= 64/TermGlyphH {
		t.Errorf("cursor not clamped: %d,%d", col, row)
	}
}
