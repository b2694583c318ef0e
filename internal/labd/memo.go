package labd

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// Bounds of a Server's decode memo: the bodies it holds at once, and the
// largest body it stores. A larger body is decoded on every arrival.
const (
	memoEntries = 1024
	memoMaxBody = 2 << 10
)

// memoEntry is what DecodeSubmit and SpecKeyInto made of one body.
type memoEntry struct {
	req SubmitRequest
	key string
	// used is set by each hit and cleared as the eviction hand passes,
	// so an entry that keeps being hit is never the one evicted.
	used atomic.Bool
}

// decodeMemo maps the exact bytes of a POST /v1/jobs body to its
// decoded request and spec key. A client that repeats a submission
// sends the same bytes each time, so its hits skip encoding/json and
// SHA-256. A body is stored on its second arrival, and only once it
// decoded and keyed without error: a body that arrives once, such as a
// fresh spec, never takes a slot. When the memo is full, a clock hand
// evicts the first entry that served no hit since the hand last passed
// it; if every entry did, the new body is not stored.
type decodeMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	slots   []string // stored bodies in slot order, for the hand
	hand    int

	// seen holds the hashes of bodies that arrived once, one per slot:
	// a body whose hash is still in its slot on arrival is a repeat.
	seed maphash.Seed
	seen [memoEntries]atomic.Uint64
}

func newDecodeMemo() *decodeMemo {
	return &decodeMemo{
		entries: make(map[string]*memoEntry),
		seed:    maphash.MakeSeed(),
	}
}

// lookup returns body's entry, allocation-free.
func (m *decodeMemo) lookup(body []byte) (*memoEntry, bool) {
	m.mu.Lock()
	e, ok := m.entries[string(body)]
	m.mu.Unlock()
	if ok && !e.used.Load() {
		e.used.Store(true)
	}
	return e, ok
}

// repeat records body's arrival and reports whether it arrived before
// (as far as its slot in seen remembers).
func (m *decodeMemo) repeat(body []byte) bool {
	if len(body) > memoMaxBody {
		return false
	}
	h := maphash.Bytes(m.seed, body)
	return m.seen[h%memoEntries].Swap(h) == h
}

// store remembers body's decoding, evicting as the type comment says.
func (m *decodeMemo) store(body []byte, req SubmitRequest, key string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[string(body)]; ok {
		return
	}
	k, e := string(body), &memoEntry{req: req, key: key}
	if len(m.slots) < memoEntries {
		m.slots = append(m.slots, k)
		m.entries[k] = e
		return
	}
	for range m.slots {
		old := m.slots[m.hand]
		if m.entries[old].used.Swap(false) {
			m.hand = (m.hand + 1) % len(m.slots)
			continue
		}
		delete(m.entries, old)
		m.slots[m.hand] = k
		m.entries[k] = e
		m.hand = (m.hand + 1) % len(m.slots)
		return
	}
}

// DecodeKeyed returns what DecodeSubmit and SpecKeyInto make of a
// POST /v1/jobs body: the request, and its spec key, or "" when the spec
// cannot be keyed (an invalid spec, which the scheduler rejects with
// its own message). err is DecodeSubmit's. The answer comes from the
// server's decode memo when the body was stored there (counted as
// labd.submit.decode_reused), allocation-free; the daemon's own handler
// and a fleet router in front of it both decode through here.
func (s *Server) DecodeKeyed(body []byte) (SubmitRequest, string, error) {
	return s.decodeKeyed(body, "")
}

// decodeKeyed is DecodeKeyed for a caller that may hold the spec key
// already: a routed request's key, which a miss uses instead of hashing
// the spec. Only a key derived here is ever stored.
func (s *Server) decodeKeyed(body []byte, routedKey string) (SubmitRequest, string, error) {
	if e, ok := s.memo.lookup(body); ok {
		s.decodeReused.Add(1)
		return e.req, e.key, nil
	}
	req, err := DecodeSubmit(body)
	if err != nil {
		return req, "", err
	}
	repeat := s.memo.repeat(body)
	if routedKey != "" && !repeat {
		return req, routedKey, nil
	}
	var keyBuf [64]byte
	if SpecKeyInto(req.Job, &keyBuf) != nil {
		return req, "", nil
	}
	key := string(keyBuf[:])
	if repeat {
		s.memo.store(body, req, key)
	}
	return req, key, nil
}
