package gossip

import (
	"testing"
	"time"
)

func TestDeltaSupersedes(t *testing.T) {
	cases := []struct {
		d        Delta
		st       State
		inc      uint64
		want     bool
		describe string
	}{
		{Delta{State: StateSuspect, Inc: 0}, StateAlive, 0, true, "suspect beats alive at same inc"},
		{Delta{State: StateAlive, Inc: 0}, StateSuspect, 0, false, "alive loses to suspect at same inc"},
		{Delta{State: StateAlive, Inc: 1}, StateSuspect, 0, true, "higher inc beats any state"},
		{Delta{State: StateDead, Inc: 0}, StateAlive, 1, false, "lower inc never wins"},
		{Delta{State: StateDead, Inc: 2}, StateSuspect, 2, true, "dead beats suspect"},
		{Delta{State: StateLeft, Inc: 2}, StateDead, 2, true, "left beats dead"},
		{Delta{State: StateAlive, Inc: 3}, StateAlive, 3, false, "identical claim is idempotent"},
	}
	for _, c := range cases {
		if got := c.d.supersedes(c.st, c.inc); got != c.want {
			t.Errorf("%s: supersedes = %v, want %v", c.describe, got, c.want)
		}
	}
}

func TestRefutationBumpsIncarnation(t *testing.T) {
	ml := NewMemberlist("a", "http://a", true)

	// A suspicion about self at the current incarnation must be out-bid.
	_, refuted := ml.Apply(Delta{ID: "a", State: StateSuspect, Inc: 0})
	if !refuted {
		t.Fatal("suspicion about self at current incarnation was not refuted")
	}
	if inc := ml.Incarnation(); inc != 1 {
		t.Fatalf("incarnation after refutation = %d, want 1", inc)
	}
	if ml.Refutations() != 1 {
		t.Fatalf("refutations = %d, want 1", ml.Refutations())
	}
	d := ml.appendSelf(nil)[0]
	if d.State != StateAlive || d.Inc != 1 {
		t.Fatalf("self delta after refutation = %+v, want alive@1", d)
	}

	// A death claim at a higher incarnation is out-bid past it.
	if _, refuted := ml.Apply(Delta{ID: "a", State: StateDead, Inc: 5}); !refuted {
		t.Fatal("death claim about self was not refuted")
	}
	if inc := ml.Incarnation(); inc != 6 {
		t.Fatalf("incarnation after death refutation = %d, want 6", inc)
	}

	// A stale claim below the current incarnation is ignored.
	if _, refuted := ml.Apply(Delta{ID: "a", State: StateSuspect, Inc: 2}); refuted {
		t.Fatal("stale suspicion (inc below self) should not trigger a refutation")
	}

	// A left claim about a node that has not left (an earlier run under
	// this ID left gracefully) is out-bid like a death.
	if _, refuted := ml.Apply(Delta{ID: "a", State: StateLeft, Inc: 6}); !refuted {
		t.Fatal("left claim about a live self was not refuted")
	}
	if inc := ml.Incarnation(); inc != 7 {
		t.Fatalf("incarnation after left refutation = %d, want 7", inc)
	}
}

// TestStaleAliveClaimQueuesRegisterBack: a claim that a left or dead
// member is placed, below the register's incarnation, changes nothing
// but queues the register back so the claimant (usually the member
// itself, restarted) hears it and can out-bid it.
func TestStaleAliveClaimQueuesRegisterBack(t *testing.T) {
	for _, st := range []State{StateLeft, StateDead} {
		ml := NewMemberlist("a", "http://a", true)
		ml.Apply(Delta{ID: "c", URL: "http://c", State: st, Inc: 1})
		drainPiggyback(ml)
		if changed, _ := ml.Apply(Delta{ID: "c", URL: "http://c", State: StateAlive, Inc: 0}); changed {
			t.Fatalf("%v: stale alive claim changed placement", st)
		}
		got := ml.AppendPiggyback(nil, 8)
		if len(got) != 1 || got[0].ID != "c" || got[0].State != st || got[0].Inc != 1 {
			t.Fatalf("%v: piggyback after stale alive claim = %+v, want c %v@1", st, got, st)
		}
		// A stale claim that agrees the member is out queues nothing.
		drainPiggyback(ml)
		ml.Apply(Delta{ID: "c", State: StateDead, Inc: 0})
		if got := ml.AppendPiggyback(nil, 8); len(got) != 0 {
			t.Fatalf("%v: piggyback after stale dead claim = %+v, want none", st, got)
		}
	}
}

func TestLeftNodeDoesNotRefute(t *testing.T) {
	ml := NewMemberlist("a", "http://a", true)
	ml.Leave()
	if _, refuted := ml.Apply(Delta{ID: "a", State: StateDead, Inc: 99}); refuted {
		t.Fatal("a gracefully left node must not refute claims about itself")
	}
	if !ml.Left() {
		t.Fatal("Left() = false after Leave")
	}
}

// drainPiggyback spends every queued delta's retransmission budget.
func drainPiggyback(ml *Memberlist) {
	for i := 0; i < 64; i++ {
		ml.AppendPiggyback(nil, 16)
	}
}

func TestSuspectExpiryDeclaresDeath(t *testing.T) {
	ml := NewMemberlist("a", "http://a", true)
	ml.Apply(Delta{ID: "b", URL: "http://b", State: StateAlive, Inc: 0})

	if _, ok := ml.Suspect("b"); !ok {
		t.Fatal("could not suspect a live member")
	}
	// Suspects stay in placement: evicting on suspicion would churn the
	// ring for every long GC pause.
	if _, urls := ml.Placement(); len(urls) != 2 {
		t.Fatalf("placement dropped a suspect: %v", urls)
	}

	// Before the timeout: no deaths.
	if deaths, _ := ml.ExpireSuspects(time.Now(), time.Hour); len(deaths) != 0 {
		t.Fatalf("premature deaths: %v", deaths)
	}
	// After the timeout: dead and out of placement.
	deaths, changed := ml.ExpireSuspects(time.Now().Add(time.Hour), time.Minute)
	if len(deaths) != 1 || deaths[0].ID != "b" || deaths[0].State != StateDead {
		t.Fatalf("deaths = %v, want one dead(b)", deaths)
	}
	if !changed {
		t.Fatal("death did not report a placement change")
	}
	if _, urls := ml.Placement(); len(urls) != 1 {
		t.Fatalf("placement still holds the dead member: %v", urls)
	}
}

func TestConfirmClearsSuspicionWithoutIncBump(t *testing.T) {
	ml := NewMemberlist("a", "http://a", true)
	ml.Apply(Delta{ID: "b", URL: "http://b", State: StateAlive, Inc: 3})
	ml.Suspect("b")

	ml.Confirm("b")
	st, inc, _ := ml.State("b")
	if st != StateAlive || inc != 3 {
		t.Fatalf("after Confirm: state=%v inc=%d, want alive@3 (a direct ack may not mint incarnations)", st, inc)
	}
	// Nothing expires afterwards.
	if deaths, _ := ml.ExpireSuspects(time.Now().Add(time.Hour), time.Minute); len(deaths) != 0 {
		t.Fatalf("confirmed member still expired: %v", deaths)
	}
}

func TestPiggybackBudgetDrains(t *testing.T) {
	ml := NewMemberlist("a", "http://a", true)
	ml.Apply(Delta{ID: "b", URL: "http://b", State: StateAlive, Inc: 0})

	budget := retransmitBudget(2)
	total := 0
	for i := 0; i < budget+4; i++ {
		got := ml.AppendPiggyback(nil, 8)
		total += len(got)
	}
	if total != budget {
		t.Fatalf("delta rode %d messages, budget is %d", total, budget)
	}
}

// splitmix steps a deterministic rng for the property test.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TestConvergenceProperty is the CRDT law the whole design rests on: two
// nodes that apply the same set of membership deltas — split into
// disjoint halves first, in different orders, with duplicates — converge
// to identical placement sets and identical epochs once they exchange
// snapshots. 200 randomized trials with a fixed seed.
func TestConvergenceProperty(t *testing.T) {
	ids := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	states := []State{StateAlive, StateSuspect, StateDead, StateLeft}
	seed := uint64(0xc0ffee)

	for trial := 0; trial < 200; trial++ {
		// Generate a random delta stream over the ID space.
		n := 4 + int(splitmix(&seed)%12)
		deltas := make([]Delta, n)
		for i := range deltas {
			deltas[i] = Delta{
				ID:    ids[splitmix(&seed)%uint64(len(ids))],
				URL:   "http://x",
				State: states[splitmix(&seed)%uint64(len(states))],
				Inc:   splitmix(&seed) % 4,
			}
		}

		a := NewMemberlist("A", "http://A", true)
		b := NewMemberlist("B", "http://B", true)

		// Disjoint halves, shuffled independently, with duplication.
		half := n / 2
		applyShuffled := func(ml *Memberlist, ds []Delta) {
			perm := make([]Delta, len(ds))
			copy(perm, ds)
			for i := len(perm) - 1; i > 0; i-- {
				j := int(splitmix(&seed) % uint64(i+1))
				perm[i], perm[j] = perm[j], perm[i]
			}
			for _, d := range perm {
				ml.Apply(d)
				if splitmix(&seed)%3 == 0 {
					ml.Apply(d) // idempotence under duplication
				}
			}
		}
		applyShuffled(a, deltas[:half])
		applyShuffled(b, deltas[half:])

		// Anti-entropy: exchange full snapshots both ways, twice (a
		// snapshot can carry claims that unlock each other).
		for round := 0; round < 2; round++ {
			for _, d := range a.Snapshot() {
				b.Apply(d)
			}
			for _, d := range b.Snapshot() {
				a.Apply(d)
			}
		}

		epochA, urlsA := a.Placement()
		epochB, urlsB := b.Placement()
		// Self is always in one's own placement and arrives at the other
		// via the snapshot exchange; both should now see both selves plus
		// identical registers for everything else.
		if epochA != epochB {
			t.Fatalf("trial %d: epochs diverged: %x vs %x\nA=%v\nB=%v",
				trial, epochA, epochB, urlsA, urlsB)
		}
		if len(urlsA) != len(urlsB) {
			t.Fatalf("trial %d: placement sets diverged: %v vs %v", trial, urlsA, urlsB)
		}
		for id := range urlsA {
			if _, ok := urlsB[id]; !ok {
				t.Fatalf("trial %d: %s placed on A but not B", trial, id)
			}
		}
		// Per-member registers agree exactly.
		for _, id := range ids {
			stA, incA, okA := a.State(id)
			stB, incB, okB := b.State(id)
			if okA != okB || (okA && (stA != stB || incA != incB)) {
				t.Fatalf("trial %d: register %s diverged: (%v,%d,%v) vs (%v,%d,%v)",
					trial, id, stA, incA, okA, stB, incB, okB)
			}
		}
	}
}

// TestEpochIsContentDerived: the epoch depends only on the placement
// set, so two nodes with the same membership agree on it without any
// coordination — and it changes whenever placement changes.
func TestEpochIsContentDerived(t *testing.T) {
	a := NewMemberlist("A", "http://A", true)
	b := NewMemberlist("B", "http://B", true)
	for _, ml := range []*Memberlist{a, b} {
		ml.Apply(Delta{ID: "A", URL: "http://A", State: StateAlive, Inc: 0})
		ml.Apply(Delta{ID: "B", URL: "http://B", State: StateAlive, Inc: 0})
		ml.Apply(Delta{ID: "C", URL: "http://C", State: StateAlive, Inc: 0})
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("same placement, different epochs: %x vs %x", a.Epoch(), b.Epoch())
	}
	before := a.Epoch()
	a.Apply(Delta{ID: "C", State: StateDead, Inc: 0})
	if a.Epoch() == before {
		t.Fatal("placement changed but epoch did not")
	}
	b.Apply(Delta{ID: "C", State: StateDead, Inc: 0})
	if a.Epoch() != b.Epoch() {
		t.Fatal("epochs diverged after applying the same death")
	}
}

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

// Epoch returns the current placement epoch.
func (ml *Memberlist) Epoch() uint64 {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if !ml.placementOK {
		ml.rebuildPlacementLocked()
	}
	return ml.epoch
}
