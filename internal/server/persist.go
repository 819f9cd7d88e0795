package server

import (
	"encoding/gob"
	"fmt"
	"io"
)

// Session persistence. The paper's statelessness argument puts all true
// state on the server (§2.2); this file makes that state durable across
// server restarts, so a slimd can be upgraded without losing anyone's
// desktop. What persists is exactly what the architecture says matters:
// the authoritative frame buffer, plus any application state the app
// chooses to save. Consoles notice nothing — on reattach they are simply
// repainted.

// Persistent is optionally implemented by applications that want their
// internal state saved with the session (the built-in Terminal persists
// its cursor; the frame buffer already carries the text pixels).
type Persistent interface {
	// SaveState returns an opaque snapshot of application state.
	SaveState() []byte
	// RestoreState reinstates a snapshot produced by SaveState.
	RestoreState(data []byte) error
}

// serverImage is the serialized form of the session table: the ID counter
// and one SessionSnapshot per session, the same freeze a migration ships.
// State files written before the snapshot carried LastSeq decode with it
// zero (gob matches fields by name).
type serverImage struct {
	NextID   uint32
	Sessions []SessionSnapshot
}

// SaveSessions serializes every session (detached from consoles — console
// bindings are transient by design) to w, in the table's arrival order,
// which LoadSessions keeps: an unchanged server writes the same bytes
// every time.
func (s *Server) SaveSessions(w io.Writer) error {
	s.mu.Lock()
	img := serverImage{NextID: s.nextID}
	for _, sess := range s.sessions {
		img.Sessions = append(img.Sessions, *sess.snapshot())
	}
	s.mu.Unlock()
	if err := gob.NewEncoder(w).Encode(img); err != nil {
		return fmt.Errorf("server: save sessions: %w", err)
	}
	return nil
}

// LoadSessions restores sessions saved with SaveSessions into an empty
// server. Applications are rebuilt with the server's factory and offered
// their saved state; every session starts detached and repaints whichever
// console its user next badges into, numbering on from where it stopped.
func (s *Server) LoadSessions(r io.Reader) error {
	var img serverImage
	if err := gob.NewDecoder(r).Decode(&img); err != nil {
		return fmt.Errorf("server: load sessions: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) != 0 {
		return fmt.Errorf("server: LoadSessions into a non-empty server")
	}
	s.nextID = img.NextID
	for i := range img.Sessions {
		if err := s.restoreLocked(&img.Sessions[i]); err != nil {
			return err
		}
	}
	return nil
}
