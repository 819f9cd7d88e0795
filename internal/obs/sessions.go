package obs

import (
	"sort"
	"sync"
)

// Sessions is a per-session store keyed by the fleet-unique session ID:
// the map behind the flight recorder's rings, the SLO tracker's windows
// and the path estimator's state. Keeping the three on one type gives them
// one get-or-create, one eviction and one enumeration, so shards sharing a
// store resolve a migrated session to the state it already has, and a
// terminated session can be shown to have left every store. The zero value
// is an empty store.
type Sessions[T any] struct {
	mu sync.RWMutex
	m  map[uint32]*T
}

// Get returns the session's entry, calling create for it on first use.
func (s *Sessions[T]) Get(id uint32, create func() *T) *T {
	s.mu.RLock()
	v, ok := s.m[id]
	s.mu.RUnlock()
	if ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[id]; ok {
		return v
	}
	if s.m == nil {
		s.m = make(map[uint32]*T)
	}
	v = create()
	s.m[id] = v
	return v
}

// Lookup returns the session's entry without creating it (nil if absent),
// so evidence reads never instantiate state for sessions nothing observed.
func (s *Sessions[T]) Lookup(id uint32) *T {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[id]
}

// Remove evicts the session's entry and returns it (nil if absent).
// Pointers components already hold keep working but are unreachable from
// the store.
func (s *Sessions[T]) Remove(id uint32) *T {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.m[id]
	delete(s.m, id)
	return v
}

// IDs lists the sessions with an entry, ascending.
func (s *Sessions[T]) IDs() []uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]uint32, 0, len(s.m))
	for id := range s.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
