// Package gossip is the fleet's live-membership layer: a SWIM-style
// failure detector and membership state machine that lets a fleet of
// gclabd nodes reconfigure itself — nodes joining, leaving gracefully,
// or dying — while the fleet keeps serving traffic.
//
// Health spreads epidemically instead of by on-demand probing: each
// node periodically pings one random peer, falls back to indirect
// ping-reqs through K proxies when the direct ping times out, and
// piggybacks membership deltas on every message. A peer that misses
// both probes becomes *suspect*, not dead: the suspicion is gossiped,
// reaches the suspect itself, and a merely-slow node (the canonical
// confusion: a long GC pause, exactly what this laboratory simulates
// all day) refutes it by re-announcing itself with a higher
// incarnation number. Only a suspicion that survives the full suspect
// timeout unrefuted becomes a death declaration.
//
// The membership list is a conflict-free register per node: a delta
// (state, incarnation) supersedes another iff its incarnation is
// higher, or equal with a more damning state (alive < suspect < dead <
// left). Merging is commutative, associative and idempotent, so any
// two nodes that have seen the same set of deltas — in any order, with
// any duplication — hold identical membership and therefore identical
// placement rings. The placement epoch is a hash of the membership's
// placement set, giving every node the same epoch number for the same
// ring without coordination.
package gossip

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// State is a member's lifecycle state.
type State uint8

const (
	// StateAlive: the member answers probes (or its suspicion was
	// refuted). In the placement ring.
	StateAlive State = iota
	// StateSuspect: the member missed a direct and K indirect probes,
	// or a router's connection to it failed. Still in the placement
	// ring — a suspect is more often a long GC pause than a corpse, and
	// evicting it would churn its arc's keys for nothing when it
	// refutes — but routers route around it until it is confirmed.
	StateSuspect
	// StateDead: the suspicion survived the full suspect timeout
	// unrefuted. Out of the ring; its arc slides to its successors.
	StateDead
	// StateLeft: the member announced a graceful leave. Out of the
	// ring, but distinguished from dead so an operator (and the
	// leave-vs-kill experiment) can tell a drain from a crash.
	StateLeft
)

// String renders the state for /fleet/state's rows and the gctop panel.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// rank orders states of equal incarnation: a more damning claim wins,
// which is what makes the per-member register a CRDT.
func (s State) rank() int { return int(s) }

// InPlacement reports whether a member in this state owns ring arcs.
func (s State) InPlacement() bool { return s == StateAlive || s == StateSuspect }

// Delta is one gossiped membership claim: "node ID is in state State at
// incarnation Inc". Alive deltas carry the member's URL so a node
// learned through gossip is immediately routable.
type Delta struct {
	ID    string `json:"id"`
	URL   string `json:"url,omitempty"`
	State State  `json:"state"`
	Inc   uint64 `json:"inc"`
}

// supersedes reports whether d beats a known (state, inc) register.
func (d Delta) supersedes(state State, inc uint64) bool {
	if d.Inc != inc {
		return d.Inc > inc
	}
	return d.State.rank() > state.rank()
}

// Member is one row of the membership snapshot.
type Member struct {
	ID          string `json:"id"`
	URL         string `json:"url"`
	State       State  `json:"-"`
	StateName   string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
}

// member is the internal register for one peer.
type member struct {
	url         string
	state       State
	inc         uint64
	suspectedAt time.Time // local clock; zero unless state == StateSuspect
}

// queued is one delta awaiting piggyback, with its remaining
// retransmission budget (each delta rides ~O(log n) messages, the
// classic epidemic-dissemination setting).
type queued struct {
	d    Delta
	left int
}

// Memberlist is the membership state machine: the per-node registers,
// the piggyback queue, and this node's own identity and incarnation.
// All methods are safe for concurrent use.
type Memberlist struct {
	mu      sync.Mutex
	self    string
	selfURL string
	selfInc uint64
	// selfState is StateAlive once announced, StateLeft after a
	// graceful leave. An un-announced node (a joiner warming up) is
	// tracked with announced=false and excluded from placement until
	// Announce.
	selfState State
	announced bool

	members map[string]*member // peers; never contains self

	queue []queued

	// placementIDs is the sorted placement set (reused between calls;
	// rebuilt only when stale). epoch is its hash.
	placementIDs []string
	placementOK  bool
	epoch        uint64

	refutations uint64
}

// NewMemberlist builds the state machine for one node. announced=false
// starts the node outside placement (the join path: warm up first,
// Announce later); true starts it alive (the static-seed path, where
// every node boots with the same membership).
func NewMemberlist(self, selfURL string, announced bool) *Memberlist {
	return &Memberlist{
		self:      self,
		selfURL:   selfURL,
		selfState: StateAlive,
		announced: announced,
		members:   make(map[string]*member),
	}
}

// Self returns this node's ID.
func (ml *Memberlist) Self() string { return ml.self }

// Incarnation returns this node's current incarnation number.
func (ml *Memberlist) Incarnation() uint64 {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return ml.selfInc
}

// Refutations counts how many times this node refuted a suspicion or
// death claim about itself.
func (ml *Memberlist) Refutations() uint64 {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return ml.refutations
}

// appendSelf appends this node's own current claim to dst — piggybacked
// on every outgoing message, which is both the steady-state heartbeat
// and the refutation carrier. A node that has not announced makes no
// claim about itself: a joiner warming up, or a standalone router, must
// not be placed by a peer that merely heard from it.
func (ml *Memberlist) appendSelf(dst []Delta) []Delta {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if !ml.announced {
		return dst
	}
	return append(dst, ml.selfDeltaLocked())
}

func (ml *Memberlist) selfDeltaLocked() Delta {
	return Delta{ID: ml.self, URL: ml.selfURL, State: ml.selfState, Inc: ml.selfInc}
}

// retransmitBudget is how many more messages a fresh delta rides:
// 2·ceil(log2(n+2))+2, the epidemic-broadcast setting that reaches n
// nodes with high probability.
func retransmitBudget(n int) int {
	return 2*bits.Len(uint(n+1)) + 2
}

// push queues a delta for piggyback, replacing any queued delta it
// supersedes. Caller holds ml.mu.
func (ml *Memberlist) push(d Delta) {
	for i := range ml.queue {
		if ml.queue[i].d.ID == d.ID {
			if d.supersedes(ml.queue[i].d.State, ml.queue[i].d.Inc) {
				ml.queue[i] = queued{d: d, left: retransmitBudget(len(ml.members) + 1)}
			}
			return
		}
	}
	ml.queue = append(ml.queue, queued{d: d, left: retransmitBudget(len(ml.members) + 1)})
}

// Apply merges one gossiped delta. It reports whether the placement set
// or a placed member's routability changed (the caller rebuilds rings)
// and whether the delta was a claim about self that this node refuted.
func (ml *Memberlist) Apply(d Delta) (changed, refuted bool) {
	if d.ID == "" {
		return false, false
	}
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return ml.applyLocked(d)
}

func (ml *Memberlist) applyLocked(d Delta) (changed, refuted bool) {
	if d.ID == ml.self {
		// A claim about this node. Suspicion, death or departure at our
		// incarnation (or higher) is refuted by out-bidding it: bump
		// the incarnation past the claim and re-announce (once
		// announced; a joiner carries the bump into its Announce). A
		// left claim about a node that has not left was minted by an
		// earlier run under this ID that left gracefully — a restart
		// with the same -peers, or a re-join. A node that has left does
		// not refute — the claim is true.
		if ml.selfState == StateLeft {
			return false, false
		}
		if d.State != StateAlive && d.Inc >= ml.selfInc {
			ml.selfInc = d.Inc + 1
			ml.refutations++
			if ml.announced {
				ml.push(ml.selfDeltaLocked())
			}
			return false, true
		}
		return false, false
	}

	m, known := ml.members[d.ID]
	if !known {
		if !d.State.InPlacement() && d.URL == "" {
			// A dead/left claim about a node we never met: remember the
			// register (so a stale alive can't resurrect it) but it
			// carries no placement weight either way.
			ml.members[d.ID] = &member{state: d.State, inc: d.Inc}
			ml.push(d)
			return false, false
		}
		m = &member{url: d.URL, state: d.State, inc: d.Inc}
		if d.State == StateSuspect {
			m.suspectedAt = time.Now()
		}
		ml.members[d.ID] = m
		ml.push(d)
		if d.State.InPlacement() {
			ml.placementOK = false
			return true, false
		}
		return false, false
	}

	if !d.supersedes(m.state, m.inc) {
		if d.State.InPlacement() && !m.state.InPlacement() {
			// A stale claim that a dead or left member is placed —
			// typically the member itself, restarted below the
			// incarnation it died or left at. Nothing probes a left
			// member, so queue our register back: the claimant hears it
			// on this exchange's ack and the member can out-bid it.
			ml.push(Delta{ID: d.ID, State: m.state, Inc: m.inc})
		}
		return false, false
	}
	was := m.state
	if d.URL != "" {
		m.url = d.URL
	}
	if d.State == StateSuspect && m.state != StateSuspect {
		m.suspectedAt = time.Now()
	}
	m.state, m.inc = d.State, d.Inc
	ml.push(d)
	if was.InPlacement() != m.state.InPlacement() {
		ml.placementOK = false
		return true, false
	}
	return (was == StateSuspect) != (m.state == StateSuspect), false
}

// Confirm records a successful probe of a member: proof of life that
// supersedes a local suspicion at the same incarnation, and returns the
// member to routing (reported as changed). Unlike a refutation it does
// not bump the incarnation (only the member itself may), so a suspicion
// gossiped at a higher incarnation still wins.
func (ml *Memberlist) Confirm(id string) (changed bool) {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	m, ok := ml.members[id]
	if !ok || m.state != StateSuspect {
		return false
	}
	// An ack is direct evidence, stronger than the relayed suspicion it
	// contradicts; clear the suspect clock but keep the register's
	// incarnation so the member's own refutation (inc+1) still
	// propagates to everyone else.
	m.state = StateAlive
	m.suspectedAt = time.Time{}
	return true
}

// Suspect marks a member suspect at its current incarnation (a failed
// probe sequence or data-path connection) and returns the delta to
// gossip, or ok=false when the member is not in a suspectable state.
func (ml *Memberlist) Suspect(id string) (d Delta, ok bool) {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	m, known := ml.members[id]
	if !known || m.state != StateAlive {
		return Delta{}, false
	}
	m.state = StateSuspect
	m.suspectedAt = time.Now()
	d = Delta{ID: id, URL: m.url, State: StateSuspect, Inc: m.inc}
	ml.push(d)
	return d, true
}

// ExpireSuspects declares dead every member whose suspicion has
// outlived the timeout, returning the death deltas (nil in the common
// no-deaths case) and whether placement changed.
func (ml *Memberlist) ExpireSuspects(now time.Time, timeout time.Duration) (deaths []Delta, placementChanged bool) {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	for id, m := range ml.members {
		if m.state != StateSuspect || m.suspectedAt.IsZero() {
			continue
		}
		if now.Sub(m.suspectedAt) < timeout {
			continue
		}
		m.state = StateDead
		m.suspectedAt = time.Time{}
		d := Delta{ID: id, State: StateDead, Inc: m.inc}
		ml.push(d)
		deaths = append(deaths, d)
	}
	if len(deaths) > 0 {
		ml.placementOK = false
		placementChanged = true
	}
	return deaths, placementChanged
}

// Announce moves this node into placement (the end of a join's warm-up)
// and returns its alive delta to gossip.
func (ml *Memberlist) Announce() Delta {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if !ml.announced {
		ml.announced = true
		ml.placementOK = false
	}
	ml.selfState = StateAlive
	d := ml.selfDeltaLocked()
	ml.push(d)
	return d
}

// Leave marks this node as gracefully left and returns the delta to
// broadcast. After Leave, claims about self are no longer refuted.
func (ml *Memberlist) Leave() Delta {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if ml.selfState != StateLeft {
		ml.selfState = StateLeft
		ml.selfInc++
		ml.placementOK = false
	}
	d := ml.selfDeltaLocked()
	if ml.announced {
		ml.push(d)
	}
	return d
}

// Left reports whether this node has gracefully left.
func (ml *Memberlist) Left() bool {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return ml.selfState == StateLeft
}

// AppendPiggyback appends up to limit queued deltas to dst (reusing its
// capacity), consuming one retransmission from each. Freshest-first
// would need a sort; FIFO is fine at fleet scale and keeps this
// allocation-free once dst's capacity has grown.
func (ml *Memberlist) AppendPiggyback(dst []Delta, limit int) []Delta {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	kept := ml.queue[:0]
	for _, q := range ml.queue {
		if len(dst) < limit {
			dst = append(dst, q.d)
			q.left--
		}
		if q.left > 0 {
			kept = append(kept, q)
		}
	}
	ml.queue = kept
	return dst
}

// rebuildPlacementLocked refreshes the sorted placement set and epoch.
func (ml *Memberlist) rebuildPlacementLocked() {
	ml.placementIDs = ml.placementIDs[:0]
	if ml.announced && ml.selfState.InPlacement() {
		ml.placementIDs = append(ml.placementIDs, ml.self)
	}
	for id, m := range ml.members {
		if m.state.InPlacement() {
			ml.placementIDs = append(ml.placementIDs, id)
		}
	}
	sort.Strings(ml.placementIDs)
	// FNV-1a over the sorted IDs with a separator, finalized with
	// splitmix64: two nodes with the same placement set compute the
	// same epoch with no coordination.
	h := uint64(14695981039346656037)
	for _, id := range ml.placementIDs {
		for i := 0; i < len(id); i++ {
			h ^= uint64(id[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	ml.epoch = h ^ (h >> 31)
	ml.placementOK = true
}

// Placement returns the current ring epoch and the placement set as
// id → URL (self included once announced).
func (ml *Memberlist) Placement() (epoch uint64, urls map[string]string) {
	epoch, urls, _ = ml.routing()
	return epoch, urls
}

// routing returns Placement plus the placed members that are suspect,
// sorted — read under one lock, so routers never see a suspect set from
// a different placement.
func (ml *Memberlist) routing() (epoch uint64, urls map[string]string, suspects []string) {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if !ml.placementOK {
		ml.rebuildPlacementLocked()
	}
	urls = make(map[string]string, len(ml.placementIDs))
	for _, id := range ml.placementIDs {
		if id == ml.self {
			urls[id] = ml.selfURL
			continue
		}
		m := ml.members[id]
		urls[id] = m.url
		if m.state == StateSuspect {
			suspects = append(suspects, id)
		}
	}
	return ml.epoch, urls, suspects
}

// Epoch returns the current placement epoch.
func (ml *Memberlist) Epoch() uint64 {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if !ml.placementOK {
		ml.rebuildPlacementLocked()
	}
	return ml.epoch
}

// Members snapshots every known member — self included once announced
// — sorted by ID, for /fleet/state's rows and the gctop membership
// panel.
func (ml *Memberlist) Members() []Member {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	out := make([]Member, 0, len(ml.members)+1)
	if ml.announced {
		out = append(out, Member{
			ID: ml.self, URL: ml.selfURL,
			State: ml.selfState, StateName: ml.selfState.String(),
			Incarnation: ml.selfInc,
		})
	}
	for id, m := range ml.members {
		out = append(out, Member{
			ID: id, URL: m.url,
			State: m.state, StateName: m.state.String(),
			Incarnation: m.inc,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Snapshot returns every register as deltas (self included) — the join
// response, seeding a new node's membership in one message.
func (ml *Memberlist) Snapshot() []Delta {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	out := make([]Delta, 0, len(ml.members)+1)
	if ml.announced {
		out = append(out, ml.selfDeltaLocked())
	}
	for id, m := range ml.members {
		out = append(out, Delta{ID: id, URL: m.url, State: m.state, Inc: m.inc})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// State returns a member's current register (ok=false for unknown IDs).
func (ml *Memberlist) State(id string) (st State, inc uint64, ok bool) {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if id == ml.self {
		return ml.selfState, ml.selfInc, true
	}
	if m, known := ml.members[id]; known {
		return m.state, m.inc, true
	}
	return 0, 0, false
}

// AppendProbeTargets appends every placed peer (alive or suspect, never
// self) to dst, reusing its capacity — the probe rotation rebuilds its
// schedule through this without allocating.
func (ml *Memberlist) AppendProbeTargets(dst []string) []string {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	for id, m := range ml.members {
		if m.state.InPlacement() {
			dst = append(dst, id)
		}
	}
	return dst
}

// AppendDead appends every dead peer to dst — the recovery probe's
// candidate list (a dead node that was merely partitioned away can be
// coaxed back by telling it what the fleet thinks of it).
func (ml *Memberlist) AppendDead(dst []string) []string {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	for id, m := range ml.members {
		if m.state == StateDead {
			dst = append(dst, id)
		}
	}
	return dst
}

// URL resolves a member's base URL ("" when unknown).
func (ml *Memberlist) URL(id string) string {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if id == ml.self {
		return ml.selfURL
	}
	if m, ok := ml.members[id]; ok {
		return m.url
	}
	return ""
}
