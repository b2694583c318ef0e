package labd

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheSingleflight: N concurrent begins for one key elect exactly
// one leader; everyone observes the leader's bytes.
func TestCacheSingleflight(t *testing.T) {
	c := newResultCache(8, nil)
	const n = 16
	want := []byte("result")

	var leaders atomic.Int64
	var wg sync.WaitGroup
	results := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cached, _, fl, leader := c.beginTier("k")
			switch {
			case cached != nil:
				results[i] = cached
			case leader:
				leaders.Add(1)
				c.complete("k", fl, want, nil)
				results[i] = want
			default:
				<-fl.done
				if fl.err != nil {
					t.Errorf("follower %d: %v", i, fl.err)
					return
				}
				results[i] = fl.bytes
			}
		}(i)
	}
	wg.Wait()

	if got := leaders.Load(); got != 1 {
		t.Fatalf("leaders = %d, want exactly 1", got)
	}
	for i, r := range results {
		if !bytes.Equal(r, want) {
			t.Errorf("caller %d got %q, want %q", i, r, want)
		}
	}
	if got, ok := c.get("k"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("after completion get(k) = %q, %v; want %q, true", got, ok, want)
	}
}

// TestCacheSingleflightError: a failed flight releases followers with
// the error and stores nothing, so the next begin retries cold.
func TestCacheSingleflightError(t *testing.T) {
	c := newResultCache(8, nil)
	boom := errors.New("boom")

	_, _, fl, leader := c.beginTier("k")
	if !leader {
		t.Fatal("first begin must lead")
	}
	_, _, follower, leads := c.beginTier("k")
	if leads {
		t.Fatal("second begin must follow, not lead")
	}
	c.complete("k", fl, nil, boom)
	<-follower.done
	if follower.err != boom {
		t.Fatalf("follower err = %v, want %v", follower.err, boom)
	}
	if _, ok := c.get("k"); ok {
		t.Fatal("failed flight must not populate the cache")
	}
	if _, _, _, leader := c.beginTier("k"); !leader {
		t.Fatal("after a failed flight the next begin must lead again")
	}
}

// TestCacheLRUEviction: entries past the bound evict least-recently-used
// first, and a get refreshes recency.
func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, nil)
	put := func(key string) {
		_, _, fl, leader := c.beginTier(key)
		if !leader {
			t.Fatalf("begin(%s): expected leader", key)
		}
		c.complete(key, fl, []byte(key), nil)
	}

	put("a")
	put("b")
	// Refresh "a", then insert "c": "b" is now the LRU victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a must be cached")
	}
	put("c")

	if got, want := fmt.Sprint(c.keys()), "[c a]"; got != want {
		t.Fatalf("keys after eviction = %v, want %v", got, want)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("b must have been evicted as least recently used")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}

	// Evicted keys re-enter as fresh flights; inserting "b" again pushes
	// out the current LRU entry "a".
	_, _, fl, leader := c.beginTier("b")
	if !leader {
		t.Fatal("evicted key must miss and elect a new leader")
	}
	c.complete("b", fl, []byte("b2"), nil)
	if got, want := fmt.Sprint(c.keys()), "[b c]"; got != want {
		t.Fatalf("keys after reinsertion = %v, want %v", got, want)
	}
}

// TestCacheReplicasGiveWay: replicas share the entry bound with the
// node's own results but never evict one that has served a hit, are
// evicted before one, stay out of keys() and off disk, and become the
// node's own when a handoff stores the same key.
func TestCacheReplicasGiveWay(t *testing.T) {
	disk, _ := testDiskCache(t, nil)
	c := newResultCache(3, disk)
	own := func(key string) { c.seed(key, []byte(key)) }
	held := func(key string) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.byKey[key]
		return ok
	}
	check := func(step, keys string, replicas ...string) {
		t.Helper()
		if got := fmt.Sprint(c.keys()); got != keys {
			t.Fatalf("%s: own keys %v, want %v", step, got, keys)
		}
		for _, r := range replicas {
			if !held(r) {
				t.Fatalf("%s: replica %s missing", step, r)
			}
		}
		if n := len(c.keys()) + len(replicas); c.len() != n {
			t.Fatalf("%s: %d entries, want %d", step, c.len(), n)
		}
	}

	own("a")
	own("b")
	c.get("a")
	c.get("b")
	if !c.keep("r1", []byte("r1")) {
		t.Fatal("a replica must take free room")
	}
	check("free room", "[b a]", "r1")
	// Full, and both own results have served a hit: a replica replaces
	// only another replica, and an own result evicts a replica first.
	if !c.keep("r2", []byte("r2")) || held("r1") {
		t.Fatal("a replica must replace the least recently used replica")
	}
	own("c")
	check("own insert", "[c b a]")
	if held("r2") {
		t.Fatal("an own result must evict the replica before a result that served a hit")
	}
	if c.keep("r3", []byte("r3")) || held("r3") {
		t.Fatal("a replica must not evict a result that has served a hit")
	}
	// With no replica left, own results evict least recently used first.
	own("d")
	check("plain LRU", "[d c b]")
	// The least recently used own result has not served a hit: a replica
	// may take its place.
	c.get("b")
	if !c.keep("r4", []byte("r4")) || held("c") {
		t.Fatal("a replica must take the place of an LRU result that never served a hit")
	}
	check("unreused LRU result", "[b d]", "r4")
	if _, ok := disk.read("r4"); ok {
		t.Fatal("a replica reached the disk tier")
	}
	// A handoff of the replica's key makes it the node's own.
	own("r4")
	check("handoff", "[r4 b d]")
	if _, ok := disk.read("r4"); !ok {
		t.Fatal("an own result must write through to disk")
	}
}

// TestSpecKeyNormalization: default-equivalent specs share one content
// address; different experiments get different ones.
func TestSpecKeyNormalization(t *testing.T) {
	mustKey := func(s JobSpec) string {
		t.Helper()
		k, err := s.key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	a, err := JobSpec{Kind: KindSimulate, Seed: 7}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{
		Kind: KindSimulate, Collector: "ParallelOld", HeapBytes: 16 << 30,
		Threads: 48, AllocBytesPerSec: 200e6, DurationSeconds: 60, Seed: 7,
	}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if mustKey(a) != mustKey(b) {
		t.Errorf("default-equivalent specs hash differently:\n%+v\n%+v", a, b)
	}
	c, err := JobSpec{Kind: KindSimulate, Seed: 8}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	if mustKey(a) == mustKey(c) {
		t.Error("different seeds must hash differently")
	}

	if _, err := (JobSpec{Kind: "warp-drive"}).normalized(); err == nil {
		t.Error("unknown kind must fail validation")
	}
	if _, err := (JobSpec{Kind: KindAdvise}).normalized(); err == nil {
		t.Error("advise without heap/alloc must fail validation")
	}
	if _, err := (JobSpec{Kind: KindBenchmark, Benchmark: "no-such-bench"}).normalized(); err == nil {
		t.Error("unknown benchmark must fail validation")
	}
}
