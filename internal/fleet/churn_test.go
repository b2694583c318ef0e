package fleet_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/fleet"
	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

// startJoiner brings up a node that is not yet a member: its own
// daemon and router, a membership of one, a gossiper in joining mode
// whose tick loop runs from the start, as gclabd's does. It enters a
// fleet through JoinAndWarm.
func startJoiner(t *testing.T, id string) *testNode {
	t.Helper()
	swap := &handlerSwap{}
	ts := httptest.NewServer(swap)
	t.Cleanup(ts.Close)
	self := map[string]string{id: ts.URL}
	rt, err := fleet.New(fleet.Config{Self: id, Nodes: self})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := labd.New(labd.Config{Workers: 2, QueueDepth: 64, NodeID: id, Peers: rt})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetLocal(srv)
	gcfg := gossipConfig(id, ts.URL, self, fleetOpts{tick: 20 * time.Millisecond, suspect: 300 * time.Millisecond}, rt)
	gcfg.Joining = true
	g, err := gossip.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AttachGossip(g)
	swap.set(rt.Handler())
	g.Start()
	t.Cleanup(func() {
		rt.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return &testNode{id: id, ts: ts, swap: swap, rt: rt, srv: srv, g: g}
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
// sweep, with zero client-visible failures. The kill reaches gossip
// first from the data path: the entry node's shard stream to the victim
// breaks. Per-job latency chaos stretches the batch so the churn lands
// mid-flight.
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

	nodes, kill := startFleet(t, []string{"a", "b", "c"}, fleetOpts{
		tick: 20 * time.Millisecond, suspect: 300 * time.Millisecond,
		chaos: everyNode(t, "labd/job.latency:p=1,delay=30ms"),
	})

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
			kill("c")
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
