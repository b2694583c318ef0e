package obs

import (
	"sort"
	"sync"
	"time"
)

// Store holds completed traces under two complementary retention
// policies sharing one bounded memory budget:
//
//   - A ring buffer of the most recent Capacity traces — the "what just
//     happened" view.
//   - A slowest-K set retained past ring eviction — the "what hurt"
//     view. Tail latency is the paper's whole subject; the trace of the
//     worst request must survive a flood of fast ones.
//
// A trace is dropped only when it has left both sets. All operations
// take one short mutex hold; nothing on the request path blocks on
// export.
type Store struct {
	mu   sync.Mutex
	ring []*TraceData // capacity-sized, nil until filled
	next int
	byID map[TraceID]*TraceData
	slow []*TraceData // ascending by Duration, ≤ K entries
	k    int
	seen int64
}

func newStore(capacity, slowestK int) *Store {
	return &Store{
		ring: make([]*TraceData, capacity),
		byID: make(map[TraceID]*TraceData),
		k:    slowestK,
	}
}

// add files one completed trace under both retention policies.
func (s *Store) add(td *TraceData) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++

	// Ring: overwrite the oldest slot.
	if old := s.ring[s.next]; old != nil {
		old.inRing = false
		s.dropIfOrphaned(old)
	}
	td.inRing = true
	s.ring[s.next] = td
	s.next = (s.next + 1) % len(s.ring)

	// Slowest-K: insert in duration order, evict the fastest past K.
	i := sort.Search(len(s.slow), func(i int) bool {
		return s.slow[i].Duration >= td.Duration
	})
	s.slow = append(s.slow, nil)
	copy(s.slow[i+1:], s.slow[i:])
	s.slow[i] = td
	td.inSlow = true
	if len(s.slow) > s.k {
		fastest := s.slow[0]
		s.slow = s.slow[1:]
		fastest.inSlow = false
		s.dropIfOrphaned(fastest)
	}

	s.byID[td.ID] = td
}

// dropIfOrphaned removes a trace from the index once neither policy
// retains it. Caller holds s.mu.
func (s *Store) dropIfOrphaned(td *TraceData) {
	if !td.inRing && !td.inSlow {
		// Only delete if the index still points at this instance (a
		// reused trace ID — pathological but possible — must not evict
		// its successor).
		if cur, ok := s.byID[td.ID]; ok && cur == td {
			delete(s.byID, td.ID)
		}
	}
}

// Get returns the trace with the given ID, if retained.
func (s *Store) Get(id TraceID) (*TraceData, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	td, ok := s.byID[id]
	return td, ok
}

// Len returns the number of retained traces.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Seen returns the number of traces ever filed.
func (s *Store) Seen() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// TraceSummary is the list view of one retained trace.
type TraceSummary struct {
	ID              string    `json:"id"`
	Name            string    `json:"name"`
	Start           time.Time `json:"start"`
	DurationSeconds float64   `json:"duration_seconds"`
	Status          string    `json:"status"`
	Spans           int       `json:"spans"`
	Slowest         bool      `json:"slowest,omitempty"`
	// Node names the fleet node that filed the trace. Empty on a
	// single daemon's own listing; fleet aggregation stamps it so a
	// merged slowest-K view says where each trace lives.
	Node string `json:"node,omitempty"`
}

func summarize(td *TraceData) TraceSummary {
	return TraceSummary{
		ID:              td.ID.String(),
		Name:            td.Name,
		Start:           td.Start,
		DurationSeconds: td.Duration.Seconds(),
		Status:          td.Status,
		Spans:           len(td.Spans),
		Slowest:         td.inSlow,
	}
}

// Recent returns summaries of the ring's n newest traces (all of them
// when the ring holds fewer), newest first.
func (s *Store) Recent(n int) []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n = min(n, len(s.ring))
	out := make([]TraceSummary, 0, n)
	for i := 1; i <= n; i++ {
		// Walk backwards from the most recently written slot.
		td := s.ring[(s.next-i+len(s.ring))%len(s.ring)]
		if td == nil {
			break
		}
		out = append(out, summarize(td))
	}
	return out
}

// Slowest returns summaries of the slowest retained traces, slowest
// first.
func (s *Store) Slowest() []TraceSummary {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceSummary, 0, len(s.slow))
	for i := len(s.slow) - 1; i >= 0; i-- {
		out = append(out, summarize(s.slow[i]))
	}
	return out
}
