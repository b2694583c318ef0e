package gossip

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/telemetry"
)

// stallGate wraps a node's gossip handler so a test can simulate a
// stop-the-world stall: while stalled, every inbound request blocks
// until the gate reopens (or the request gives up) — exactly how a
// long GC pause looks from the network.
type stallGate struct {
	h       http.Handler
	mu      sync.Mutex
	blocked chan struct{} // non-nil while stalled
}

func (g *stallGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	ch, h := g.blocked, g.h
	g.mu.Unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
	h.ServeHTTP(w, r)
}

// serve swaps the handler behind the gate — a process restarting on the
// same address.
func (g *stallGate) serve(h http.Handler) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.h = h
}

func (g *stallGate) stall() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.blocked == nil {
		g.blocked = make(chan struct{})
	}
}

func (g *stallGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.blocked != nil {
		close(g.blocked)
		g.blocked = nil
	}
}

// testCluster wires n gossipers over real listeners.
type testCluster struct {
	ids   []string
	gs    map[string]*Gossiper
	gates map[string]*stallGate
	recs  map[string]*telemetry.Metrics
	urls  map[string]string
	srvs  []*httptest.Server
}

func startCluster(t *testing.T, ids []string, interval, suspect time.Duration) *testCluster {
	t.Helper()
	c := &testCluster{
		ids:   ids,
		gs:    make(map[string]*Gossiper),
		gates: make(map[string]*stallGate),
		recs:  make(map[string]*telemetry.Metrics),
		urls:  make(map[string]string),
	}
	for _, id := range ids {
		gate := &stallGate{}
		ts := httptest.NewServer(gate)
		c.gates[id] = gate
		c.urls[id] = ts.URL
		c.srvs = append(c.srvs, ts)
	}
	for _, id := range ids {
		rec := telemetry.NewMetrics()
		g, err := New(Config{
			Self:           id,
			URL:            c.urls[id],
			Peers:          c.urls,
			Interval:       interval,
			SuspectTimeout: suspect,
			Metrics:        rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.gates[id].serve(g.Handler())
		c.gs[id] = g
		c.recs[id] = rec
	}
	t.Cleanup(func() {
		// Reopen every gate first: a stalled handler otherwise keeps its
		// connection active and wedges the server Close below.
		for _, gate := range c.gates {
			gate.release()
		}
		for _, g := range c.gs {
			g.Close()
		}
		for _, ts := range c.srvs {
			ts.Close()
		}
	})
	return c
}

// start launches the tick loop on the given nodes. A node left
// un-started still answers gossip (its handler is live) but originates
// nothing — the shape of a process whose gossip thread is wedged.
func (c *testCluster) start(ids ...string) {
	for _, id := range ids {
		c.gs[id].Start()
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestStallRefutedNotDeclaredDead is the failure detector's acceptance
// test: a node stalled (as a long GC pause would) for less than the
// suspicion window is suspected — and then refutes the suspicion with a
// higher incarnation instead of being declared dead. Zero deaths, the
// stalled node ends alive everywhere, and the refutation is observable
// in its incarnation and counters. Run under -race in CI.
func TestStallRefutedNotDeclaredDead(t *testing.T) {
	c := startCluster(t, []string{"a", "b", "c"}, 20*time.Millisecond, 2*time.Second)
	c.start("a", "b", "c")

	// Stall c for ~1/6 of the suspicion window: long enough that direct
	// and indirect probes both fail, far too short to die.
	c.gates["c"].stall()
	waitFor(t, 3*time.Second, "c to be suspected", func() bool {
		for _, id := range []string{"a", "b"} {
			if st, _, ok := c.gs[id].Memberlist().State("c"); ok && st == StateSuspect {
				return true
			}
		}
		return false
	})
	c.gates["c"].release()

	// The suspicion must reach c (carried on the next direct probe) and
	// be refuted: c re-announces at a higher incarnation.
	waitFor(t, 5*time.Second, "c to refute the suspicion", func() bool {
		return c.gs["c"].Memberlist().Refutations() >= 1
	})
	waitFor(t, 5*time.Second, "c to be alive everywhere", func() bool {
		for _, id := range []string{"a", "b"} {
			st, inc, ok := c.gs[id].Memberlist().State("c")
			if !ok || st != StateAlive || inc < 1 {
				return false
			}
		}
		return true
	})

	for _, id := range c.ids {
		if v := c.recs[id].Counter("fleet.gossip.deaths"); v != 0 {
			t.Errorf("node %s fleet.gossip.deaths = %d, want 0", id, v)
		}
	}
	if inc := c.gs["c"].Memberlist().Incarnation(); inc < 1 {
		t.Errorf("c incarnation = %d, want >= 1 (the refutation mints it)", inc)
	}
	if v := c.recs["c"].Counter("fleet.gossip.refutations"); v < 1 {
		t.Errorf("c fleet.gossip.refutations = %d, want >= 1", v)
	}
	// All three still agree on placement.
	e := c.gs["a"].Epoch()
	for _, id := range c.ids {
		if got := c.gs[id].Epoch(); got != e {
			t.Errorf("node %s epoch %x != a's %x after recovery", id, got, e)
		}
		if _, urls := c.gs[id].Memberlist().Placement(); len(urls) != 3 {
			t.Errorf("node %s placement has %d members, want 3", id, len(urls))
		}
	}
}

// TestDeathAndRecovery: a node that stops answering for longer than
// the suspicion window is declared dead and evicted from placement —
// and the recovery probe brings it back once it answers again, because
// the probe carries the death claim for the node to refute. The victim
// never runs a tick loop: a node whose own gossip still works can
// always refute an inbound-only stall (TestStallRefutedNotDeclaredDead
// covers that), so death requires full unresponsiveness.
func TestDeathAndRecovery(t *testing.T) {
	c := startCluster(t, []string{"a", "b", "c"}, 15*time.Millisecond, 150*time.Millisecond)
	c.start("a", "b")

	c.gates["c"].stall()
	waitFor(t, 5*time.Second, "c to be declared dead", func() bool {
		st, _, ok := c.gs["a"].Memberlist().State("c")
		if !ok || st != StateDead {
			return false
		}
		st, _, ok = c.gs["b"].Memberlist().State("c")
		return ok && st == StateDead
	})
	for _, id := range []string{"a", "b"} {
		if _, urls := c.gs[id].Memberlist().Placement(); len(urls) != 2 {
			t.Errorf("node %s placement has %d members after death, want 2", id, len(urls))
		}
	}

	// Revival: c answers again; a recovery probe tells it the fleet
	// thinks it is dead; c out-bids the claim and rejoins.
	c.gates["c"].release()
	waitFor(t, 10*time.Second, "c to rejoin placement", func() bool {
		for _, id := range []string{"a", "b"} {
			st, _, ok := c.gs[id].Memberlist().State("c")
			if !ok || st != StateAlive {
				return false
			}
		}
		return true
	})
	if refs := c.gs["c"].Memberlist().Refutations(); refs < 1 {
		t.Errorf("c refutations = %d, want >= 1 (the death claim must be out-bid)", refs)
	}
}

// TestJoinAnnounceLeaveLifecycle walks the full membership choreography
// over live gossip: a joiner fetches a snapshot without entering
// placement, probes the fleet without being placed by it, announces
// itself in, and later leaves gracefully — distinguishable from a death
// in every survivor's memberlist.
func TestJoinAnnounceLeaveLifecycle(t *testing.T) {
	ctx := context.Background()
	c := startCluster(t, []string{"a", "b"}, 15*time.Millisecond, 500*time.Millisecond)
	c.start("a", "b")

	gate := &stallGate{}
	ts := httptest.NewServer(gate)
	defer ts.Close()
	rec := telemetry.NewMetrics()
	joiner, err := New(Config{
		Self:     "j",
		URL:      ts.URL,
		Joining:  true,
		Interval: 15 * time.Millisecond,
		Metrics:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	gate.serve(joiner.Handler())
	defer joiner.Close()
	// Ticks start before Join, as gclabd starts them.
	joiner.Start()

	if err := joiner.Join(ctx, []string{c.urls["a"]}); err != nil {
		t.Fatal(err)
	}
	// Joined but not announced: the joiner knows the fleet and probes
	// it, the fleet does not place the joiner.
	if _, urls := joiner.Memberlist().Placement(); len(urls) != 2 {
		t.Fatalf("joiner placement before announce = %v, want the 2 seeds only", urls)
	}
	waitFor(t, 5*time.Second, "the joiner to exchange pings with the fleet", func() bool {
		return rec.Counter("fleet.gossip.acks") >= 6
	})
	for _, id := range []string{"a", "b"} {
		if _, urls := c.gs[id].Memberlist().Placement(); len(urls) != 2 {
			t.Fatalf("node %s placed %v before the joiner announced", id, urls)
		}
	}

	joiner.Announce(ctx)
	waitFor(t, 5*time.Second, "all nodes to place the joiner", func() bool {
		for _, id := range []string{"a", "b"} {
			if _, urls := c.gs[id].Memberlist().Placement(); len(urls) != 3 {
				return false
			}
		}
		_, urls := joiner.Memberlist().Placement()
		return len(urls) == 3
	})
	waitFor(t, 5*time.Second, "epochs to converge after join", func() bool {
		e := joiner.Epoch()
		return c.gs["a"].Epoch() == e && c.gs["b"].Epoch() == e
	})

	joiner.Leave(ctx)
	waitFor(t, 5*time.Second, "survivors to see the graceful leave", func() bool {
		for _, id := range []string{"a", "b"} {
			st, _, ok := c.gs[id].Memberlist().State("j")
			if !ok || st != StateLeft {
				return false
			}
		}
		return true
	})
	for _, id := range []string{"a", "b"} {
		if d := c.recs[id].Counter("fleet.gossip.deaths"); d != 0 {
			t.Errorf("node %s counted %d deaths for a graceful leave", id, d)
		}
		if _, urls := c.gs[id].Memberlist().Placement(); len(urls) != 2 {
			t.Errorf("node %s placement has %d members after leave, want 2", id, len(urls))
		}
	}
}

// TestRestartAfterLeaveRejoinsPlacement: a static-boot node that left
// gracefully (gclabd's SIGTERM) and restarts under the same ID and the
// same Peers boots alive@0, below the left@1 its peers hold. The peers
// answer its stale claim with their register, the node out-bids it, and
// every node places it again — nothing else would, since a left member
// is never probed.
func TestRestartAfterLeaveRejoinsPlacement(t *testing.T) {
	ctx := context.Background()
	c := startCluster(t, []string{"a", "b", "c"}, 15*time.Millisecond, 2*time.Second)
	c.start("a", "b", "c")

	c.gs["c"].Leave(ctx)
	waitFor(t, 5*time.Second, "a and b to see c leave", func() bool {
		for _, id := range []string{"a", "b"} {
			if st, _, ok := c.gs[id].Memberlist().State("c"); !ok || st != StateLeft {
				return false
			}
		}
		return true
	})
	c.gs["c"].Close()
	// Restart only once the departure has exhausted its piggyback
	// budget, as it has long before an operator restarts a node.
	waitFor(t, 5*time.Second, "a's and b's piggyback queues to drain", func() bool {
		for _, id := range []string{"a", "b"} {
			ml := c.gs[id].Memberlist()
			ml.mu.Lock()
			n := len(ml.queue)
			ml.mu.Unlock()
			if n != 0 {
				return false
			}
		}
		return true
	})

	rec := telemetry.NewMetrics()
	g, err := New(Config{
		Self:           "c",
		URL:            c.urls["c"],
		Peers:          c.urls,
		Interval:       15 * time.Millisecond,
		SuspectTimeout: 2 * time.Second,
		Metrics:        rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.gs["c"], c.recs["c"] = g, rec
	c.gates["c"].serve(g.Handler())
	g.Start()

	waitFor(t, 5*time.Second, "a and b to place the restarted c", func() bool {
		for _, id := range []string{"a", "b"} {
			if st, _, ok := c.gs[id].Memberlist().State("c"); !ok || st != StateAlive {
				return false
			}
		}
		return true
	})
	waitFor(t, 5*time.Second, "epochs to converge after the restart", func() bool {
		e := g.Epoch()
		return c.gs["a"].Epoch() == e && c.gs["b"].Epoch() == e
	})
	for _, id := range c.ids {
		if _, urls := c.gs[id].Memberlist().Placement(); len(urls) != 3 {
			t.Errorf("node %s placement has %d members after the restart, want 3", id, len(urls))
		}
	}
	if inc := g.Memberlist().Incarnation(); inc < 2 {
		t.Errorf("restarted c incarnation = %d, want >= 2 (out-bidding left@1)", inc)
	}
}

// TestOnUpdateDeliversPlacement: membership changes reach the router
// callback with the right epoch and URL set.
func TestOnUpdateDeliversPlacement(t *testing.T) {
	var gotEpoch atomic.Uint64
	var mu sync.Mutex
	var gotURLs map[string]string
	g, err := New(Config{
		Self: "a",
		URL:  "http://a",
		OnUpdate: func(epoch uint64, urls map[string]string, _ []string) {
			gotEpoch.Store(epoch)
			mu.Lock()
			gotURLs = urls
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	g.applyAll([]Delta{{ID: "b", URL: "http://b", State: StateAlive, Inc: 0}})
	mu.Lock()
	urls := gotURLs
	mu.Unlock()
	if len(urls) != 2 || urls["b"] != "http://b" || urls["a"] != "http://a" {
		t.Fatalf("OnUpdate urls = %v, want a+b", urls)
	}
	if gotEpoch.Load() != g.Epoch() {
		t.Fatalf("OnUpdate epoch %x != memberlist epoch %x", gotEpoch.Load(), g.Epoch())
	}
}

// BenchmarkGossipTick pins the tick's synchronous path — suspect
// expiry, probe-target selection, and ping encoding — at zero
// allocations per period. The network round runs on a separate
// goroutine and is not part of the tick budget.
func BenchmarkGossipTick(b *testing.B) {
	peers := map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c",
		"d": "http://d", "e": "http://e",
	}
	g, err := New(Config{Self: "a", URL: "http://a", Peers: peers})
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	// Drain the boot-time piggyback queue so steady state is measured.
	for i := 0; i < 64; i++ {
		g.ml.AppendPiggyback(nil, 16)
	}
	now := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ml.ExpireSuspects(now, time.Minute)
		if target := g.prepareTick(uint64(i + 1)); target == "" {
			b.Fatal("no probe target")
		}
	}
}

// TestRetry: the fleet's one retry loop stops at the first success,
// returns the last error once attempts run out, and gives up as soon as
// its context is done. Its backoff envelope stays at max however many
// attempts there are: 70 attempts double a 1 ns base well past the
// 63 shifts an int64 holds, and each wait must still be under 1 µs
// plus the loop's millisecond.
func TestRetry(t *testing.T) {
	ctx := context.Background()
	fail := errors.New("transient")
	calls := 0
	if err := Retry(ctx, 5, time.Millisecond, time.Millisecond, func() error {
		if calls++; calls < 3 {
			return fail
		}
		return nil
	}); err != nil || calls != 3 {
		t.Errorf("success on the third attempt: err %v after %d calls", err, calls)
	}

	bounded, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	calls = 0
	start := time.Now()
	err := Retry(bounded, 70, time.Nanosecond, time.Microsecond, func() error { calls++; return fail })
	if err != fail || calls != 70 {
		t.Errorf("exhausted retries: err %v after %d calls, want %v after 70", err, calls, fail)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("69 capped waits took %v", d)
	}

	canceled, stop := context.WithCancel(ctx)
	calls = 0
	err = Retry(canceled, 5, time.Hour, time.Hour, func() error { calls++; stop(); return fail })
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Errorf("canceled context: err %v after %d calls, want context.Canceled after 1", err, calls)
	}
}
