package fleet_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/fleet"
	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

type gossipNode struct {
	id  string
	ts  *httptest.Server
	rt  *fleet.Router
	srv *labd.Server
	g   *gossip.Gossiper
}

// startGossipFleet brings up a live-membership fleet: every node runs a
// gossiper wired to its router (OnUpdate swaps the ring), tick loops
// started. jobChaos, when non-empty, arms the same fault spec on every
// daemon (e.g. job latency, to stretch a batch across churn events).
func startGossipFleet(t *testing.T, ids []string, interval, suspect time.Duration, jobChaos string) (map[string]*gossipNode, func(victim string)) {
	t.Helper()
	nodes := make(map[string]*gossipNode, len(ids))
	urls := make(map[string]string, len(ids))
	swaps := make(map[string]*handlerSwap, len(ids))
	for _, id := range ids {
		swap := &handlerSwap{}
		ts := httptest.NewServer(swap)
		nodes[id] = &gossipNode{id: id, ts: ts}
		urls[id] = ts.URL
		swaps[id] = swap
	}
	kill := func(victim string) {
		n := nodes[victim]
		n.ts.CloseClientConnections()
		_ = n.ts.Listener.Close()
	}
	for i, id := range ids {
		var chaos *faultinject.Injector
		if jobChaos != "" {
			inj, err := faultinject.Parse(uint64(1000+i), jobChaos)
			if err != nil {
				t.Fatal(err)
			}
			chaos = inj
		}
		rt, err := fleet.New(fleet.Config{Self: id, Nodes: urls, KillHook: kill})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := labd.New(labd.Config{
			Workers:    2,
			QueueDepth: 64,
			NodeID:     id,
			Peers:      rt,
			Chaos:      chaos,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetLocal(srv)
		g, err := gossip.New(gossip.Config{
			Self:           id,
			URL:            urls[id],
			Peers:          urls,
			Interval:       interval,
			SuspectTimeout: suspect,
			Rec:            srv.Recorder(),
			OnUpdate:       rt.SetMembership,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.AttachGossip(g)
		swaps[id].set(rt.Handler())
		n := nodes[id]
		n.rt, n.srv, n.g = rt, srv, g
	}
	for _, n := range nodes {
		n.g.Start()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.g.Close()
		}
		for _, n := range nodes {
			n.rt.Close()
			n.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = n.srv.Drain(ctx)
			cancel()
		}
	})
	return nodes, kill
}

// startJoiner brings up a node that is not yet a member: its own
// daemon and router, a membership of one, a gossiper in joining mode.
// It enters a fleet through JoinAndWarm.
func startJoiner(t *testing.T, id string) *gossipNode {
	t.Helper()
	swap := &handlerSwap{}
	ts := httptest.NewServer(swap)
	t.Cleanup(ts.Close)
	rt, err := fleet.New(fleet.Config{Self: id, Nodes: map[string]string{id: ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := labd.New(labd.Config{Workers: 2, QueueDepth: 64, NodeID: id, Peers: rt})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetLocal(srv)
	g, err := gossip.New(gossip.Config{
		Self:           id,
		URL:            ts.URL,
		Peers:          map[string]string{id: ts.URL},
		Joining:        true,
		Interval:       20 * time.Millisecond,
		SuspectTimeout: 300 * time.Millisecond,
		Rec:            srv.Recorder(),
		OnUpdate:       rt.SetMembership,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.AttachGossip(g)
	swap.set(rt.Handler())
	g.Start()
	t.Cleanup(func() {
		g.Close()
		rt.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return &gossipNode{id: id, ts: ts, rt: rt, srv: srv, g: g}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
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

// ringIs reports whether a router's placed set is exactly want.
func ringIs(rt *fleet.Router, want ...string) bool {
	r := rt.Ring()
	if r.Len() != len(want) {
		return false
	}
	for _, id := range want {
		found := false
		r.Walk("probe", func(n string) bool {
			if n == id {
				found = true
				return true
			}
			return false
		})
		if !found {
			return false
		}
	}
	return true
}

// TestFleetChurnByteIdentity is the membership subsystem's acceptance
// test: a fixed-seed sweep streams through a 3-node gossip fleet while
// the fleet reconfigures under it — a fourth node joins and warms up, a
// node is hard-killed, and a node leaves gracefully — and every result
// is byte-identical to a single standalone daemon running the same
// sweep, with zero client-visible failures. Per-job latency chaos
// stretches the batch so the churn lands mid-flight.
func TestFleetChurnByteIdentity(t *testing.T) {
	ctx := context.Background()
	specs := sweepSpecs(24)

	// Ground truth: one standalone daemon, no fleet, no chaos.
	solo, err := labd.New(labd.Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	tsSolo := httptest.NewServer(solo.Handler())
	t.Cleanup(func() {
		tsSolo.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = solo.Drain(ctx)
	})
	want, err := client.New(tsSolo.URL).Batch(ctx, specs, 0, nil)
	if err != nil {
		t.Fatalf("ground-truth batch: %v", err)
	}
	for _, r := range want {
		if r.Err != nil {
			t.Fatalf("ground-truth job %d: %v", r.Index, r.Err)
		}
	}

	nodes, kill := startGossipFleet(t, []string{"a", "b", "c"},
		20*time.Millisecond, 300*time.Millisecond, "labd/job.latency:p=1,delay=30ms")

	// The joiner enters the fleet mid-batch via JoinAndWarm against
	// node a as the seed.
	rtD := startJoiner(t, "d").rt

	// Scripted churn, gated on batch progress so each event lands while
	// jobs are still in flight: join at the 4th completion, hard-kill at
	// the 10th, graceful leave at the 16th.
	var churn sync.WaitGroup
	var joinErr, leaveErr error
	events := 0
	onEvent := func(ev labd.BatchEvent) {
		events++
		switch events {
		case 4:
			churn.Add(1)
			go func() {
				defer churn.Done()
				jctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				joinErr = rtD.JoinAndWarm(jctx, []string{nodes["a"].ts.URL})
			}()
		case 10:
			// A crash takes the whole process: the listener AND the tick
			// loop. Killing only the listener would leave c's outbound
			// pings refuting its own suspicion forever — which is SWIM
			// working as designed, not a crash.
			kill("c")
			nodes["c"].g.Close()
		case 16:
			churn.Add(1)
			go func() {
				defer churn.Done()
				lctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				leaveErr = client.New(nodes["b"].ts.URL).Leave(lctx)
			}()
		}
	}

	got, err := client.New(nodes["a"].ts.URL).Batch(ctx, specs, 0, onEvent)
	if err != nil {
		t.Fatalf("fleet batch under churn: %v", err)
	}
	churn.Wait()
	if joinErr != nil {
		t.Fatalf("join during batch: %v", joinErr)
	}
	if leaveErr != nil {
		t.Fatalf("graceful leave during batch: %v", leaveErr)
	}

	// Zero client-visible failures and byte identity with the standalone
	// run, kill and leave notwithstanding.
	if len(got) != len(specs) {
		t.Fatalf("churn batch returned %d results, want %d", len(got), len(specs))
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("job %d failed under churn: %v", i, r.Err)
		}
		if !bytes.Equal(r.Bytes, want[i].Bytes) {
			t.Errorf("job %d: churn bytes (%d) differ from single-node bytes (%d)",
				i, len(r.Bytes), len(want[i].Bytes))
		}
		if r.Key != want[i].Key {
			t.Errorf("job %d: content key diverged: %s vs %s", i, r.Key, want[i].Key)
		}
	}

	// The fleet converges on the post-churn membership: c dead, b left,
	// d placed — survivors agree on the ring and its epoch.
	waitUntil(t, 10*time.Second, "a to place exactly {a,d}", func() bool {
		return ringIs(nodes["a"].rt, "a", "d")
	})
	waitUntil(t, 10*time.Second, "d to place exactly {a,d}", func() bool {
		return ringIs(rtD, "a", "d")
	})
	waitUntil(t, 10*time.Second, "epochs to agree", func() bool {
		e := nodes["a"].rt.Epoch()
		return e != 0 && e == rtD.Epoch()
	})

	// The graceful leaver recorded its drain and handed off, and the
	// membership registers show one death (c) and one departure (b).
	if st, _, ok := nodes["a"].g.Memberlist().State("b"); !ok || st != gossip.StateLeft {
		t.Errorf("b's register on a = %v (present=%v), want left", st, ok)
	}
	if st, _, ok := nodes["a"].g.Memberlist().State("c"); !ok || st != gossip.StateDead {
		t.Errorf("c's register on a = %v (present=%v), want dead", st, ok)
	}

	// Post-churn, the reshaped fleet still serves the same sweep from
	// cache + handoff + recompute, byte-identical again.
	again, err := client.New(nodes["a"].ts.URL).Batch(ctx, specs, 0, nil)
	if err != nil {
		t.Fatalf("post-churn batch: %v", err)
	}
	for i, r := range again {
		if r.Err != nil {
			t.Fatalf("post-churn job %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Bytes, want[i].Bytes) {
			t.Errorf("post-churn job %d: bytes differ from single-node run", i)
		}
	}
}
