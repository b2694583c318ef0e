package labd

import (
	"container/list"
	"log"
	"sync"
)

// resultCache is a content-addressed result store with single-flight
// deduplication: the first miss for a key becomes the flight leader and
// runs the simulation; concurrent requests for the same key attach to
// that flight and share its outcome; later requests hit the stored bytes.
// Completed results are bounded by an LRU policy on entry count —
// results are immutable bytes, so eviction only costs recomputation.
//
// With a disk tier attached (Config.CacheDir), the memory LRU becomes a
// promotion layer over a crash-safe store: memory misses fall through to
// a verified disk read before electing a leader, and completed flights
// write through. Disk entries survive restarts and LRU eviction.
//
// A fleet node also keeps replicas: verified copies of results another
// node owns (see keep). They count against the same bound but sit in
// their own recency list, stay in memory, and give way first: room is
// made from this node's least recently used result only while that
// result has not been asked for again since it was stored, and
// otherwise from the least recently used replica. So a replica never
// evicts a result that has served a hit, and such a result is evicted
// only when no replica is left.
type resultCache struct {
	mu       sync.Mutex
	max      int                      // entry bound (>=1), replicas included
	byKey    map[string]*list.Element // key -> element of lru or replicas
	lru      *list.List               // this node's results; front = most recently used
	replicas *list.List               // other nodes' results; front = most recently used
	flights  map[string]*flight
	disk     *diskCache // nil = memory only
}

type cacheEntry struct {
	key     string
	bytes   []byte
	replica bool // held in replicas, not lru
	reused  bool // served from memory since it was stored
}

// flight is one in-progress execution of a key. done closes exactly once,
// after bytes/err are set.
type flight struct {
	done  chan struct{}
	bytes []byte
	err   error
}

func newResultCache(max int, disk *diskCache) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:      max,
		byKey:    make(map[string]*list.Element),
		lru:      list.New(),
		replicas: list.New(),
		flights:  make(map[string]*flight),
		disk:     disk,
	}
}

// beginTier resolves a key: a cache hit (memory, or a verified disk
// entry promoted into memory) returns the stored bytes; otherwise the
// caller either joins an existing flight (leader=false) or becomes the
// leader of a new one (leader=true) and must eventually call complete
// with the same key. A corrupt disk entry is deleted inside the read and
// shows up here as a plain miss, so the new leader recomputes and
// rewrites it. tier names what resolved the key — "memory", "disk",
// "coalesced" (joined a flight) or "miss" (became leader) — for the
// tracing layer, which wants the cache lookup's disposition on the span
// without re-deriving it.
func (c *resultCache) beginTier(key string) (cached []byte, tier string, fl *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byKey[key]; ok {
		return c.hit(e), "memory", nil, false
	}
	if fl, ok := c.flights[key]; ok {
		return nil, "coalesced", fl, false
	}
	if c.disk != nil {
		if bytes, ok := c.disk.read(key); ok {
			c.insert(key, bytes)
			return bytes, "disk", nil, false
		}
	}
	fl = &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return nil, "miss", fl, true
}

// complete finishes a flight: on success the bytes are stored (evicting
// the least-recently-used entry past the bound) and every joined waiter
// is released with the same outcome. The flight is identified by
// instance, not just key, so a stale completion (a canceled leader
// racing a fresh retry of the same key) can never finish a flight it
// does not own.
func (c *resultCache) complete(key string, fl *flight, bytes []byte, err error) {
	c.mu.Lock()
	cur, ok := c.flights[key]
	if !ok || cur != fl {
		c.mu.Unlock()
		return
	}
	delete(c.flights, key)
	fl.bytes, fl.err = bytes, err
	if err == nil {
		c.insert(key, bytes)
	}
	disk := c.disk
	c.mu.Unlock()
	if err == nil && disk != nil {
		// Write-through before releasing waiters: once a caller observes
		// the result, a restarted daemon can serve it from disk.
		if werr := disk.write(key, bytes); werr != nil {
			log.Printf("labd: cache write-through %.12s…: %v", key, werr)
		}
	}
	close(fl.done)
}

// insert stores bytes under key in the memory LRU as this node's own
// result, making room at the bound. A replica of the key becomes the
// node's own: a handoff, a warm-up or a disk read stored it here.
// Caller holds c.mu.
func (c *resultCache) insert(key string, bytes []byte) {
	if e, dup := c.byKey[key]; dup {
		ce := e.Value.(*cacheEntry)
		if ce.replica {
			c.replicas.Remove(e)
			ce.replica = false
			c.byKey[key] = c.lru.PushFront(ce)
			return
		}
		c.lru.MoveToFront(e)
		return
	}
	for c.lru.Len()+c.replicas.Len() >= c.max {
		victim := c.expendable()
		if victim == nil {
			victim = c.lru.Back()
		}
		c.remove(victim)
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, bytes: bytes})
}

// keep stores a verified copy of a result another node owns, in memory
// only, and reports whether it was kept: at the bound it takes the
// place of the expendable entry, and with none it is dropped.
func (c *resultCache) keep(key string, bytes []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, dup := c.byKey[key]; dup {
		c.listOf(e).MoveToFront(e)
		return true
	}
	if c.lru.Len()+c.replicas.Len() >= c.max {
		victim := c.expendable()
		if victim == nil {
			return false
		}
		c.remove(victim)
	}
	c.byKey[key] = c.replicas.PushFront(&cacheEntry{key: key, bytes: bytes, replica: true})
	return true
}

// expendable is the entry room is made from first: this node's least
// recently used result if it has not served a hit since it was stored,
// else the least recently used replica; nil when neither exists.
// Caller holds c.mu.
func (c *resultCache) expendable() *list.Element {
	if e := c.lru.Back(); e != nil && !e.Value.(*cacheEntry).reused {
		return e
	}
	return c.replicas.Back()
}

// listOf is the recency list e belongs to.
func (c *resultCache) listOf(e *list.Element) *list.List {
	if e.Value.(*cacheEntry).replica {
		return c.replicas
	}
	return c.lru
}

// hit marks an entry served: most recently used in its list, and
// reused. Caller holds c.mu.
func (c *resultCache) hit(e *list.Element) []byte {
	ce := e.Value.(*cacheEntry)
	ce.reused = true
	c.listOf(e).MoveToFront(e)
	return ce.bytes
}

// remove drops an entry. Caller holds c.mu.
func (c *resultCache) remove(e *list.Element) {
	c.listOf(e).Remove(e)
	delete(c.byKey, e.Value.(*cacheEntry).key)
}

// peek resolves a key from the local tiers only — memory, then a
// verified disk read (promoted into memory) — without ever electing a
// flight. It is the read side of the peer cache tier: a peer asking
// /v1/cache/{key} wants stored bytes or a fast miss, never a
// recomputation on this node's workers.
func (c *resultCache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	if e, ok := c.byKey[key]; ok {
		bytes := c.hit(e)
		c.mu.Unlock()
		return bytes, true
	}
	disk := c.disk
	c.mu.Unlock()
	if disk == nil {
		return nil, false
	}
	bytes, ok := disk.read(key)
	if !ok {
		return nil, false
	}
	c.mu.Lock()
	c.insert(key, bytes)
	c.mu.Unlock()
	return bytes, true
}

// getBytes is get with a byte-slice key: the compiler's map-lookup
// special case makes c.byKey[string(key)] allocation-free, which keeps
// the submit fast path zero-alloc end to end.
func (c *resultCache) getBytes(key []byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[string(key)]
	if !ok {
		return nil, false
	}
	return c.hit(e), true
}

// get returns the stored bytes for a key without starting a flight.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	return c.hit(e), true
}

// len returns the number of stored entries, replicas included.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len() + c.replicas.Len()
}

// seed stores externally-obtained bytes under key — the write side of
// the fleet warm-up and handoff paths, where a peer pushes (or a joiner
// pulls) results it already verified. Write-through to disk like a
// completed flight, but no flight is involved: a concurrent flight for
// the same key finishes on its own and re-inserts the identical bytes
// (content addressing makes the collision harmless).
func (c *resultCache) seed(key string, bytes []byte) {
	c.mu.Lock()
	c.insert(key, bytes)
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		if err := disk.write(key, bytes); err != nil {
			log.Printf("labd: cache seed write-through %.12s…: %v", key, err)
		}
	}
}

// keys returns the keys of this node's own results, most recently used
// first; replicas are left out.
func (c *resultCache) keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*cacheEntry).key)
	}
	return out
}
