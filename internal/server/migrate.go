package server

import (
	"fmt"
	"math"
	"slices"

	"slim/internal/protocol"
)

// Live session migration. A broker moving a session between servers uses
// the same statelessness argument as persistence (persist.go): everything
// that matters lives server side — the authoritative frame buffer, the
// application state, and the encoder's sequence counter. The console is
// never told it moved. It keeps its session ID, so its gap tracker is not
// reset, which is why the snapshot must carry LastSeq: the importing
// server's encoder resumes numbering exactly where the exporter stopped,
// and the post-attach repaint looks to the console like any other
// recovery repaint.
//
// The migration state machine, driven by the broker:
//
//	quiesce   ExportSession detaches the console and drops the session,
//	          its governor and what it owed — a full repaint follows anyway
//	snapshot  frame buffer pixels + app state + LastSeq leave the source
//	replay    ImportSession rebuilds encoder and application and resumes
//	          the sequence counter
//	redirect  the broker re-attaches the console to the importing shard,
//	          which owes it the screen and repaints the migrated pixels

// SessionSnapshot is one session frozen for transfer between servers. It
// is self-contained: a broker hands it from one shard to another in
// process, and the state file (persist.go) is the ID counter plus one
// snapshot per session.
type SessionSnapshot struct {
	ID   uint32
	User string
	W, H int
	// Pixels is the authoritative frame buffer, row major, W*H long.
	Pixels []protocol.Pixel
	// AppState is the application's Persistent snapshot (nil when the app
	// does not implement Persistent; the frame buffer still carries the
	// visible output).
	AppState []byte
	// LastSeq is the encoder's most recently issued sequence number. The
	// importing encoder resumes at LastSeq+1 so the console — which resets
	// its gap tracker only on a session-ID change — never sees the stream
	// restart.
	LastSeq uint32
}

// ExportSession freezes a user's session for migration and removes it from
// this server (closeLocked, keeping the stores shards share): the attached
// console (if any) receives SessionDetach, and the governor and the owed
// region go with the session, since the importing side builds its own and
// repaints in full. Terminate remains the eviction point for the flight
// ring, SLO state, and path estimator.
func (s *Server) ExportSession(user string) (*SessionSnapshot, error) {
	s.mu.Lock()
	sess, err := s.userSessionLocked(user)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	out := newOutbox()
	s.closeLocked(out, sess, false)
	sn := sess.snapshot()
	if s.log != nil {
		s.log.Info("session exported", "user", user, "session", sn.ID, "last_seq", sn.LastSeq)
	}
	s.mu.Unlock()
	return sn, s.deliver(out)
}

// ImportSession replays an exported snapshot into this server: the frame
// buffer is restored pixel for pixel, the application is rebuilt with the
// server's factory and offered its saved state, and the encoder resumes
// the exported sequence numbering. The session arrives detached; the next
// attach (card insertion routed here) repaints the console from the
// migrated frame buffer. The server's own ID counter is untouched — a
// migrated ID belongs to the exporting shard's space, which is why fleets
// give each shard a disjoint WithSessionIDBase.
func (s *Server) ImportSession(sn *SessionSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.restoreLocked(sn); err != nil {
		return err
	}
	if s.log != nil {
		s.log.Info("session imported", "user", sn.User, "session", sn.ID, "last_seq", sn.LastSeq)
	}
	return nil
}

// restoreLocked validates a snapshot — it may come from another process or
// a file — and rebuilds its session here. ID 0 is the console table's "no
// session". A screen is 1…65535 pixels a side, as a Hello's uint16 size
// says, which also keeps W*H from overflowing. Callers hold s.mu.
func (s *Server) restoreLocked(sn *SessionSnapshot) error {
	if sn.ID == 0 || sn.W < 1 || sn.W > math.MaxUint16 || sn.H < 1 || sn.H > math.MaxUint16 || len(sn.Pixels) != sn.W*sn.H {
		return fmt.Errorf("server: corrupt session snapshot for %q", sn.User)
	}
	if _, exists := s.byUser[sn.User]; exists {
		return fmt.Errorf("server: user %q already has a session here", sn.User)
	}
	if slices.ContainsFunc(s.sessions, func(x *Session) bool { return x.ID == sn.ID }) {
		return fmt.Errorf("server: session ID %d already in use", sn.ID)
	}
	_, err := s.newSessionLocked(sn.ID, sn.User, sn.W, sn.H, sn)
	return err
}

// SessionCount reports the number of live sessions (attached or detached).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}
