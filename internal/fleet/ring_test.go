package fleet

import (
	"fmt"
	"testing"

	"jvmgc/internal/labd"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Content addresses are hex SHA-256 digests; any well-spread
		// string works because the ring re-hashes, but keep the shape.
		keys[i] = fmt.Sprintf("%064x", uint64(i)*0x9e3779b97f4a7c15+1)
	}
	return keys
}

func ringNodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

// TestRingBalance: with the default vnode count, key ownership across
// 3, 5 and 8 nodes stays within 30% of the fair share (arc-share
// stddev shrinks like 1/sqrt(vnodes); 128 vnodes puts 3 sigma well
// under that band). The hash is fixed, so this is a property check,
// not a flake.
func TestRingBalance(t *testing.T) {
	keys := testKeys(100_000)
	for _, n := range []int{3, 5, 8} {
		r := NewRing(ringNodes(n), 0)
		counts := make(map[string]int, n)
		for _, k := range keys {
			counts[r.Lookup(k)]++
		}
		if len(counts) != n {
			t.Fatalf("%d nodes: only %d received keys", n, len(counts))
		}
		fair := float64(len(keys)) / float64(n)
		for node, c := range counts {
			if dev := float64(c)/fair - 1; dev > 0.30 || dev < -0.30 {
				t.Errorf("%d nodes: %s owns %d keys, %.1f%% off fair share %g",
					n, node, c, 100*dev, fair)
			}
		}
		t.Logf("%d nodes: min/max share deviation logged across %d keys", n, len(keys))
	}
}

// TestRingMinimalRemap: adding a sixth node moves keys only TO the
// newcomer, and no more than ~1/6 of the key space moves (the arc the
// newcomer claims). Removing it again restores the original mapping
// exactly — rings are pure functions of membership — so the same
// comparison certifies the leave direction: the only keys that remap
// on a leave are the leaver's own.
func TestRingMinimalRemap(t *testing.T) {
	keys := testKeys(60_000)
	base := NewRing([]string{"a", "b", "c", "d", "e"}, 0)
	grown := NewRing([]string{"a", "b", "c", "d", "e", "f"}, 0)

	moved := 0
	for _, k := range keys {
		was, now := base.Lookup(k), grown.Lookup(k)
		if was != now {
			moved++
			if now != "f" {
				t.Fatalf("key %s moved %s -> %s on join; only moves to the newcomer are allowed",
					k[:12], was, now)
			}
		}
	}
	share := float64(moved) / float64(len(keys))
	if share > 1.5/6 {
		t.Errorf("join remapped %.1f%% of keys, want <= ~1/6 (+50%% imbalance slack)", 100*share)
	}
	if moved == 0 {
		t.Error("join remapped nothing; the newcomer owns no keys")
	}

	// Leave direction: rebuilding the 5-node ring reproduces the original
	// mapping bit for bit, so a leave remaps exactly the leaver's keys.
	rebuilt := NewRing([]string{"f", "e", "d", "c", "b", "a", "a"}, 0) // order/dup-insensitive
	for _, k := range keys {
		if grown.Lookup(k) != rebuilt.Lookup(k) {
			t.Fatal("ring construction is order-sensitive; membership changes would remap spuriously")
		}
	}
}

// TestRingWalkOrder: Walk offers every node exactly once, owner first.
func TestRingWalkOrder(t *testing.T) {
	r := NewRing(ringNodes(5), 0)
	for _, k := range testKeys(50) {
		var order []string
		r.Walk(k, func(n string) bool {
			order = append(order, n)
			return false
		})
		if len(order) != r.Len() {
			t.Fatalf("walk offered %d nodes, want %d", len(order), r.Len())
		}
		if order[0] != r.Lookup(k) {
			t.Fatalf("walk starts at %s, Lookup says %s", order[0], r.Lookup(k))
		}
		seen := make(map[string]bool)
		for _, n := range order {
			if seen[n] {
				t.Fatalf("walk offered %s twice", n)
			}
			seen[n] = true
		}
	}
}

func TestRingValidateBoundsFleetSize(t *testing.T) {
	if err := NewRing(ringNodes(maxRingNodes), 4).Validate(); err != nil {
		t.Errorf("%d nodes must validate: %v", maxRingNodes, err)
	}
	if err := NewRing(ringNodes(maxRingNodes+1), 4).Validate(); err == nil {
		t.Errorf("%d nodes must be rejected", maxRingNodes+1)
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if got := r.Lookup("anything"); got != "" {
		t.Errorf("empty ring Lookup = %q, want \"\"", got)
	}
	r.Walk("anything", func(string) bool { t.Fatal("walk on empty ring"); return true })
}

// TestRouterPickBoundedLoadAndFailover drives the placement policy
// directly: healthy owner wins, an overloaded owner slides to the next
// arc, an owner the request already failed on or gossip suspects is
// skipped, and a fleet with nothing routable returns "".
func TestRouterPickBoundedLoadAndFailover(t *testing.T) {
	urls := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	rt, err := New(Config{Nodes: urls})
	if err != nil {
		t.Fatal(err)
	}
	key := "0c3f7d1e"
	h := finalize(hashString(key))
	owner := rt.Ring().Lookup(key)
	if got := rt.pickHash(rt.view.Load(), h, 0); got != owner {
		t.Fatalf("idle pick = %s, want ring owner %s", got, owner)
	}

	// Load the owner past the bound: with factor 1.25 and 8 pending on
	// the owner alone, bound = ceil(1.25*9/3) = 4 < 8, so placement
	// slides to the next arc.
	rt.acquire(owner, 8)
	slid := rt.pickHash(rt.view.Load(), h, 0)
	if slid == owner {
		t.Fatalf("pick stayed on overloaded owner %s", owner)
	}
	var next string
	rt.Ring().Walk(key, func(n string) bool {
		if n != owner {
			next = n
			return true
		}
		return false
	})
	if slid != next {
		t.Errorf("overload slid to %s, want next arc %s", slid, next)
	}
	rt.release(owner, 8)

	// An owner this request failed on: skipped by this request only.
	v := rt.view.Load()
	if got := rt.pickHash(v, h, v.bit(owner)); got != next {
		t.Errorf("excluded-owner pick = %s, want %s", got, next)
	}
	if got := rt.pickHash(v, h, 0); got != owner {
		t.Errorf("the exclusion outlived its request: pick = %s, want %s", got, owner)
	}
	// A suspect owner keeps its arcs but no request is routed to it.
	rt.SetMembership(1, urls, []string{owner})
	if got := rt.Ring().Lookup(key); got != owner {
		t.Errorf("suspect lost its arc: ring owner = %s, want %s", got, owner)
	}
	if got := rt.pickHash(rt.view.Load(), h, 0); got != next {
		t.Errorf("suspect-owner pick = %s, want %s", got, next)
	}
	// Nothing routable: no placement.
	rt.SetMembership(2, urls, []string{"a", "b", "c"})
	if got := rt.pickHash(rt.view.Load(), h, 0); got != "" {
		t.Errorf("all-suspect pick = %q, want \"\"", got)
	}
}

// TestRouterPickAllAtBoundFallsBack: when every alive node is at the
// load bound, pick still places (on the owner) rather than failing.
func TestRouterPickAllAtBoundFallsBack(t *testing.T) {
	rt, err := New(Config{Nodes: map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c",
	}})
	if err != nil {
		t.Fatal(err)
	}
	for n := range rt.cfg.Nodes {
		rt.acquire(n, 100)
	}
	key := "deadbeef"
	if got := rt.pickHash(rt.view.Load(), finalize(hashString(key)), 0); got != rt.Ring().Lookup(key) {
		t.Errorf("saturated pick = %q, want owner %q", got, rt.Ring().Lookup(key))
	}
}

// The routing hot path is 0-alloc by design (manual binary search, no
// closures, bitmask visited set); these tests pin that down exactly,
// and the benchmarks below feed the ci.sh bench gate.
func TestRingLookupZeroAlloc(t *testing.T) {
	r := NewRing(ringNodes(8), 0)
	keys := testKeys(64)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		_ = r.Lookup(keys[i%len(keys)])
		i++
	}); avg != 0 {
		t.Errorf("Ring.Lookup allocates %.1f/op, want 0", avg)
	}
}

func TestRouterPickZeroAlloc(t *testing.T) {
	rt, err := New(Config{Nodes: map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c",
	}})
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(64)
	i := 0
	if avg := testing.AllocsPerRun(1000, func() {
		_ = rt.pickHash(rt.view.Load(), finalize(hashString(keys[i%len(keys)])), 0)
		i++
	}); avg != 0 {
		t.Errorf("Router.pickHash allocates %.1f/op, want 0", avg)
	}
}

var sinkNode string

func BenchmarkRingLookup(b *testing.B) {
	r := NewRing(ringNodes(8), 0)
	keys := testKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNode = r.Lookup(keys[i%len(keys)])
	}
}

func BenchmarkRouterPick(b *testing.B) {
	rt, err := New(Config{Nodes: map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c",
		"d": "http://d", "e": "http://e",
	}})
	if err != nil {
		b.Fatal(err)
	}
	keys := testKeys(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNode = rt.pickHash(rt.view.Load(), finalize(hashString(keys[i%len(keys)])), 0)
	}
}

// BenchmarkRouterForward measures the per-request routing core of the
// submit path — the calls handleSubmit makes: content-address the spec
// (fast JSON encode + SHA-256 into a stack buffer) and hash the key
// (specHash), then place the hash on the ring (pickHash). Bench-gated
// at 0 allocs/op: this runs once per submission, and under saturation
// load any allocation here multiplies into GC pressure fleet-wide.
func BenchmarkRouterForward(b *testing.B) {
	rt, err := New(Config{Nodes: map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c",
		"d": "http://d", "e": "http://e",
	}})
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]labd.JobSpec, 64)
	for i := range specs {
		specs[i] = labd.JobSpec{
			Kind:             labd.KindSimulate,
			Collector:        "ParallelOld",
			HeapBytes:        2 << 30,
			Threads:          8,
			AllocBytesPerSec: 150e6,
			DurationSeconds:  5,
			Seed:             uint64(i) + 1,
		}
	}
	var keyBuf [64]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := specHash(specs[i%len(specs)], &keyBuf)
		if err != nil {
			b.Fatal(err)
		}
		sinkNode = rt.pickHash(rt.view.Load(), h, 0)
	}
}

// TestSpecHashZeroAlloc gates the submit path's keying and placement
// (specHash, then pickHash) at 0 allocs/op, and pins both to the
// canonical forms: the key is labd.SpecKey's, and its hash the one the
// key's string form gives.
func TestSpecHashZeroAlloc(t *testing.T) {
	rt, err := New(Config{Nodes: map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c",
	}})
	if err != nil {
		t.Fatal(err)
	}
	spec := labd.JobSpec{Kind: labd.KindSimulate, Collector: "CMS",
		HeapBytes: 4 << 30, DurationSeconds: 10, Seed: 42}
	var keyBuf [64]byte
	if avg := testing.AllocsPerRun(1000, func() {
		h, err := specHash(spec, &keyBuf)
		if err != nil {
			t.Fatal(err)
		}
		sinkNode = rt.pickHash(rt.view.Load(), h, 0)
	}); avg != 0 {
		t.Errorf("specHash + pickHash allocates %.1f/op, want 0", avg)
	}
	// The derived key must match the canonical one, and its hash the
	// string key's, so placement agrees.
	want, err := labd.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	h, err := specHash(spec, &keyBuf)
	if err != nil {
		t.Fatal(err)
	}
	if string(keyBuf[:]) != want {
		t.Errorf("specHash key %q != SpecKey %q", keyBuf[:], want)
	}
	if keyHash := finalize(hashString(want)); h != keyHash {
		t.Errorf("specHash = %#x, want the key's hash %#x", h, keyHash)
	}
}

// Walk visits the key's candidate owners in ring order — the owner
// first, then each distinct successor node — until fn returns true
// (accepted) or every node was offered. This is the failover and
// bounded-load order: a router that cannot place a job on its owner
// (dead, partitioned, over the load bound) slides to the next arc,
// and every router sliding the same way keeps placement deterministic.
func (r *Ring) Walk(key string, fn func(node string) bool) {
	if len(r.points) == 0 {
		return
	}
	start := r.start(key)
	var visited uint64 // bitmask over node indices; rings are ≤64 nodes
	offered := 0
	for i := 0; i < len(r.points) && offered < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		bit := uint64(1) << uint(p.node)
		if visited&bit != 0 {
			continue
		}
		visited |= bit
		offered++
		if fn(r.nodes[p.node]) {
			return
		}
	}
}
