// Package fleet shards the labd job daemon across nodes, turning N
// independent daemons into one logical service.
//
// Placement is by consistent hash of the job's content address — the
// same SHA-256 the cache keys on — so routing and caching agree about
// ownership: every identical spec, submitted to any node, converges on
// one owner node's one single-flight execution. Membership changes move
// only the keys whose arc changed hands (≈1/N of the space per
// node join or leave), which is exactly the property that keeps the
// fleet's caches warm through topology churn.
//
// The Router embeds in every node (cmd/gclabd -fleet) or runs
// standalone: it forwards POST /v1/jobs and /v1/jobs/batch to each
// job's owner, fails over when a node dies mid-run, implements the
// labd.PeerFetcher cache tier over GET /v1/cache/{key}, and serves the
// fleet-wide observability rollup under /fleet/* (counters summed,
// histograms merged bucket-exactly, SLO windows re-derived, slowest-K
// traces unioned with node labels). Embedded in a node, it also answers
// cache hits on keys the node does not own from read replicas: copies
// of the owner's hits, kept once their SHA-256 checks out.
package fleet

import (
	"fmt"
	"sort"
)

// defaultVnodes is the virtual-node count per physical node. More
// vnodes smooth the key distribution (stddev of arc share shrinks like
// 1/sqrt(vnodes)) at the cost of ring size; 128 keeps an 8-node ring's
// imbalance under a few percent while the whole ring stays cache-warm.
const defaultVnodes = 128

// Ring is an immutable consistent-hash ring: node IDs expanded into
// hashed virtual points, sorted around the 64-bit ring. Lookups walk
// clockwise from the key's hash to the first point, so a membership
// change only remaps keys whose nearest point changed — the minimal-
// disruption property the fleet's cache warmth depends on.
//
// Rings are cheap to rebuild; membership changes construct a new Ring
// rather than mutating one, so lookups are lock-free and allocation-free.
type Ring struct {
	nodes  []string // sorted unique node IDs
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// NewRing builds a ring over the given node IDs (order-insensitive,
// duplicates collapsed) with the given virtual-node count per node
// (<=0 selects the default).
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = defaultVnodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n != "" && !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq, points: make([]ringPoint, 0, len(uniq)*vnodes)}
	for i, n := range uniq {
		base := hashString(n)
		for v := 0; v < vnodes; v++ {
			// Each vnode point is the node hash stirred with the vnode
			// index through the same splitmix finalizer the key hash
			// uses, so points spread uniformly without per-vnode string
			// formatting.
			r.points = append(r.points, ringPoint{
				hash: finalize(base ^ (uint64(v+1) * 0x9e3779b97f4a7c15)),
				node: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// Len returns the number of physical nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// start returns the index of the first ring point at or after the
// key's hash (wrapping past the end).
func (r *Ring) start(key string) int {
	return r.startHash(finalize(hashString(key)))
}

// startHash is start for callers that already finalized the key's hash
// — the router's forward path hashes each key once and reuses it across
// placement attempts.
func (r *Ring) startHash(h uint64) int {
	points := r.points
	// Manual binary search: sort.Search's func parameter would allocate
	// a closure on the lookup hot path, which is benchmarked 0-alloc.
	lo, hi := 0, len(points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(points) {
		lo = 0
	}
	return lo
}

// Lookup returns the key's owner: the node of the first ring point
// clockwise from the key's hash ("" on an empty ring). Allocation-free.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.start(key)].node]
}

// maxRingNodes bounds the fleet size: Walk tracks visited nodes in one
// 64-bit mask so candidate iteration stays allocation-free.
const maxRingNodes = 64

// Validate rejects rings the Walk bitmask cannot cover.
func (r *Ring) Validate() error {
	if len(r.nodes) > maxRingNodes {
		return fmt.Errorf("fleet: %d nodes exceeds ring limit %d", len(r.nodes), maxRingNodes)
	}
	return nil
}

// hashString is FNV-1a over the string bytes (the repo's standard cheap
// string hash; see internal/faultinject).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// hashBytes is hashString over a byte slice — same FNV-1a sequence, so
// hashBytes(k) == hashString(string(k)) without the conversion
// allocation. The router's submit path derives keys into stack buffers
// and hashes them here.
func hashBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}

// finalize is the splitmix64 finalizer: FNV output is well-distributed
// in the low bits but the ring needs uniformity across all 64.
func finalize(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}
