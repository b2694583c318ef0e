package fleet_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/fleet"
	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/hdrhist"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

// handlerSwap lets a listener exist before the handler behind it does:
// fleet wiring needs every node's URL up front (the membership map),
// but a node's handler needs the router, which needs the membership.
// It also counts the requests it is serving, and once killed cuts every
// request off, as a crashed process would.
type handlerSwap struct {
	mu     sync.RWMutex
	h      http.Handler
	active atomic.Int64
	dead   atomic.Bool
}

func (s *handlerSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.dead.Load() {
		panic(http.ErrAbortHandler) // drops the connection unanswered
	}
	s.active.Add(1)
	defer s.active.Add(-1)
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func (s *handlerSwap) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

type testNode struct {
	id   string
	ts   *httptest.Server
	swap *handlerSwap
	rt   *fleet.Router
	srv  *labd.Server
	g    *gossip.Gossiper
	// accepted counts the connections the node's listener has accepted.
	accepted atomic.Int64
	// suspects counts the suspects in the last view gossip handed the
	// router, stored after the swap: the memberlist changes first, so a
	// test waiting on routing must wait on this.
	suspects atomic.Int32
}

// fleetOpts configures startFleet. The zero value is a quiet fleet:
// every node gossips, as every gclabd fleet node does, but no tick loop
// runs, so liveness changes only when the data path reports a failed
// connection.
type fleetOpts struct {
	// tick and suspect start every node's gossip tick loop with this
	// period and suspicion window (tick 0 = no tick loop).
	tick, suspect time.Duration
	// chaos arms fault sites on a node's router and daemon (nil = none).
	chaos func(id string) *faultinject.Injector
	// labd adjusts every daemon's config.
	labd func(*labd.Config)
}

// everyNode arms the same fault spec on every node.
func everyNode(t *testing.T, spec string) func(id string) *faultinject.Injector {
	return func(string) *faultinject.Injector {
		inj, err := faultinject.Parse(1, spec)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
}

// gossipConfig is a test node's gossip setup. A dead peer refuses
// connections at once, so the generous probe timeout does not slow
// crash detection; it keeps a peer that is merely slow under the race
// detector from being suspected, which would move traffic that tests
// pin to its owner.
func gossipConfig(id, url string, peers map[string]string, o fleetOpts, rt *fleet.Router) gossip.Config {
	return gossip.Config{
		Self:           id,
		URL:            url,
		Peers:          peers,
		Interval:       o.tick,
		ProbeTimeout:   250 * time.Millisecond,
		SuspectTimeout: o.suspect,
		Metrics:        rt.Metrics(),
		OnUpdate:       rt.SetMembership,
	}
}

// startFleet brings up a fleet of real daemons on ephemeral listeners,
// each with an embedded router, the peer cache tier and a gossiper
// wired. The returned kill function takes a node down the way a crash
// would: listener closed, connections cut, gossip stopped, no drain.
// The handler refuses too, so a connection accepted just before the
// listener closed cannot keep answering pings for the dead node.
// Killing only the listener would leave the victim's outbound pings
// refuting its own suspicion forever — SWIM working as designed, not a
// crash.
func startFleet(t *testing.T, ids []string, o fleetOpts) (map[string]*testNode, func(victim string)) {
	t.Helper()
	nodes := make(map[string]*testNode, len(ids))
	urls := make(map[string]string, len(ids))
	for _, id := range ids {
		swap := &handlerSwap{}
		ts := httptest.NewUnstartedServer(swap)
		n := &testNode{id: id, ts: ts, swap: swap}
		ts.Config.ConnState = func(_ net.Conn, cs http.ConnState) {
			if cs == http.StateNew {
				n.accepted.Add(1)
			}
		}
		ts.Start()
		nodes[id] = n
		urls[id] = ts.URL
	}
	kill := func(victim string) {
		n := nodes[victim]
		n.swap.dead.Store(true)
		_ = n.ts.Listener.Close()
		n.ts.CloseClientConnections()
		n.g.Close()
	}
	for _, id := range ids {
		var chaos *faultinject.Injector
		if o.chaos != nil {
			chaos = o.chaos(id)
		}
		rt, err := fleet.New(fleet.Config{
			Self:     id,
			Nodes:    urls,
			Chaos:    chaos,
			KillHook: kill,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := labd.Config{
			Workers:    2,
			QueueDepth: 64,
			NodeID:     id,
			Peers:      rt,
			Chaos:      chaos,
		}
		if o.labd != nil {
			o.labd(&cfg)
		}
		srv, err := labd.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.SetLocal(srv)
		n := nodes[id]
		gcfg := gossipConfig(id, urls[id], urls, o, rt)
		gcfg.OnUpdate = func(epoch uint64, urls map[string]string, suspects []string) {
			rt.SetMembership(epoch, urls, suspects)
			n.suspects.Store(int32(len(suspects)))
		}
		g, err := gossip.New(gcfg)
		if err != nil {
			t.Fatal(err)
		}
		rt.AttachGossip(g)
		n.swap.set(rt.Handler())
		n.rt, n.srv, n.g = rt, srv, g
	}
	if o.tick > 0 {
		for _, n := range nodes {
			n.g.Start()
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.rt.Close()
		}
		for _, n := range nodes {
			n.ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = n.srv.Drain(ctx)
			cancel()
		}
	})
	return nodes, kill
}

func sweepSpecs(n int) []labd.JobSpec {
	specs := make([]labd.JobSpec, n)
	for i := range specs {
		specs[i] = labd.JobSpec{
			Kind:            labd.KindSimulate,
			Collector:       "CMS",
			HeapBytes:       2 << 30,
			DurationSeconds: 5,
			Seed:            uint64(i + 1),
		}
	}
	return specs
}

// TestFleetChaosNodeKillByteIdentity is the subsystem's acceptance
// test: a fixed-seed chaos campaign kills one fleet node mid-batch, the
// entry router excludes it for the rest of the batch (and gossip
// suspects it) and re-routes its shard's unfinished jobs to their keys'
// next ring arcs, and the surviving fleet's results are byte-identical
// to a single standalone daemon running the same sweep.
func TestFleetChaosNodeKillByteIdentity(t *testing.T) {
	ctx := context.Background()
	specs := sweepSpecs(12)

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

	// The fleet: chaos armed on the entry node only — its second
	// transport operation kills whichever peer it targets, exactly once.
	// Which peer dies depends on goroutine interleaving (shard forwards
	// and peer-cache probes race); byte identity must hold either way,
	// which is the property under test.
	nodes, _ := startFleet(t, []string{"n0", "n1", "n2"}, fleetOpts{chaos: func(id string) *faultinject.Injector {
		if id != "n0" {
			return nil
		}
		inj, err := faultinject.Parse(7, "fleet/node.kill:after=1,count=1")
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}})

	got, err := client.New(nodes["n0"].ts.URL).Batch(ctx, specs, 0, nil)
	if err != nil {
		t.Fatalf("fleet batch: %v", err)
	}
	if len(got) != len(specs) {
		t.Fatalf("fleet batch returned %d results, want %d", len(got), len(specs))
	}
	for i, r := range got {
		if r.Err != nil {
			t.Fatalf("fleet job %d failed after node kill: %v", i, r.Err)
		}
		if !bytes.Equal(r.Bytes, want[i].Bytes) {
			t.Errorf("job %d: fleet bytes (%d) differ from single-node bytes (%d)",
				i, len(r.Bytes), len(want[i].Bytes))
		}
		if r.Key != want[i].Key {
			t.Errorf("job %d: content key diverged: %s vs %s", i, r.Key, want[i].Key)
		}
	}

	st := nodes["n0"].rt.Stats()
	if st.Kills != 1 {
		t.Errorf("injected kills = %d, want exactly 1", st.Kills)
	}
	if st.Reroutes < 1 {
		t.Errorf("reroutes = %d, want >= 1 (the dead shard's unfinished jobs)", st.Reroutes)
	}
}

// TestFleetPeerCacheHit: a result cached on a non-owner node (primed
// directly, as if membership had just changed) is served to the owner
// through the peer tier — no recompute, SHA-256 verified, counted in
// the owner's /metrics, disposition "peer" end to end.
func TestFleetPeerCacheHit(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startFleet(t, []string{"a", "b", "c"}, fleetOpts{})

	spec := labd.JobSpec{
		Kind:            labd.KindSimulate,
		Collector:       "G1",
		HeapBytes:       4 << 30,
		DurationSeconds: 5,
		Seed:            99,
	}
	key, err := labd.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes["a"].rt.Ring().Lookup(key)
	var donor, entry string
	for id := range nodes {
		if id == owner {
			continue
		}
		if donor == "" {
			donor = id
		} else {
			entry = id
		}
	}

	// Prime the donor as routed traffic would: X-Labd-Routed pins the
	// job locally whatever the ring says.
	payload, _ := json.Marshal(labd.SubmitRequest{Job: spec})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		nodes[donor].ts.URL+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Labd-Routed", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	primed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("priming the donor: HTTP %d, %v", resp.StatusCode, err)
	}

	// Submit through a third node: routed to the owner, which has never
	// seen the key — the peer tier must find the donor's copy.
	c := client.New(nodes[entry].ts.URL)
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cache != "peer" {
		t.Errorf("disposition = %q, want \"peer\"", sub.Cache)
	}
	if sub.Node != owner {
		t.Errorf("submission landed on %q, ring owner is %q", sub.Node, owner)
	}
	if !bytes.Equal(sub.Bytes, primed) {
		t.Errorf("peer-served bytes (%d) differ from the donor's original (%d)",
			len(sub.Bytes), len(primed))
	}
	if got := c.Stats().NodeAttempts[owner]; got != 1 {
		t.Errorf("client attributed %d answers to %s, want 1", got, owner)
	}

	// The owner computed nothing and the peer tier shows in its metrics.
	metrics := fetchText(t, nodes[owner].ts.URL+"/metrics")
	if line := "jvmgc_labd_cache_hits_peer_total 1"; !bytes.Contains([]byte(metrics), []byte(line+"\n")) {
		t.Errorf("owner metrics missing %q", line)
	}
	if sims := nodes[owner].srv.NodeState().Counters["labd.simulations"]; sims != 0 {
		t.Errorf("owner ran %d simulations, want 0 (peer tier must pre-empt recompute)", sims)
	}
	if st := nodes[owner].rt.Stats(); st.PeerHits != 1 {
		t.Errorf("owner router peer hits = %d, want 1", st.PeerHits)
	}

	// The wire bytes were verified: the peek endpoint's digest matches.
	peek, hdr := fetchPeek(t, nodes[donor].ts.URL+"/v1/cache/"+key)
	sum := sha256.Sum256(peek)
	if hex.EncodeToString(sum[:]) != hdr {
		t.Errorf("peek digest header %q does not match body", hdr)
	}
	if !bytes.Equal(peek, primed) {
		t.Error("peek bytes differ from the computed result")
	}
}

// TestFleetExactAggregation: the fleet rollup is exact — /fleet/state's
// merged latency histogram is byte-identical to merging the per-node
// histograms by hand, counters are sums (the routers' fleet.router.*
// counters included), and its rows list every member alive in gossip
// with a reading.
func TestFleetExactAggregation(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startFleet(t, []string{"a", "b", "c"}, fleetOpts{})
	entry := client.New(nodes["a"].ts.URL)

	results, err := entry.Batch(ctx, sweepSpecs(9), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", r.Index, r.Err)
		}
	}

	// Hand-merge the per-node snapshots (read directly, no HTTP, so the
	// snapshots cannot drift between the two reads), then compare with
	// what the rollup endpoint serves.
	const lat, queue = "labd_job_latency_hist_seconds", "labd_queue_wait_seconds"
	var states []labd.NodeState
	var wantSubmitted, wantForwards int64
	for _, n := range nodes {
		st := n.srv.NodeState()
		wantSubmitted += st.Counters["labd.jobs.submitted"]
		wantForwards += n.rt.Stats().Forwards
		states = append(states, st)
	}
	want := fleet.MergeStates(states)

	var got fleet.FleetState
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := json.Unmarshal([]byte(fetchText(t, nodes["a"].ts.URL+"/fleet/state")), &got); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got.Hists[lat], want.Hists[lat]) || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !bytes.Equal(got.Hists[lat], want.Hists[lat]) {
		t.Error("fleet latency histogram differs from the hand-merged per-node histograms")
	}
	if !bytes.Equal(got.Hists[queue], want.Hists[queue]) {
		t.Error("fleet queue-wait histogram differs from the hand merge")
	}
	if got.Counters["labd.jobs.submitted"] != wantSubmitted {
		t.Errorf("fleet submitted = %d, want per-node sum %d",
			got.Counters["labd.jobs.submitted"], wantSubmitted)
	}
	if got.Self != "a" || len(got.Nodes) != 3 {
		t.Fatalf("rollup: self %q, %d rows; want a, 3", got.Self, len(got.Nodes))
	}
	for _, n := range got.Nodes {
		if n.Reading == nil || n.State != "alive" {
			t.Errorf("node %s in a healthy fleet: state %q, reading %v", n.ID, n.State, n.Reading != nil)
		}
	}
	h, err := hdrhist.Decode(got.Hists[lat])
	if err != nil {
		t.Fatalf("merged histogram does not decode: %v", err)
	}
	var perNodeCount uint64
	for _, st := range states {
		if nh, err := hdrhist.Decode(st.Hists[lat]); err == nil {
			perNodeCount += nh.Count()
		}
	}
	if h.Count() != perNodeCount {
		t.Errorf("merged histogram count %d != per-node sum %d", h.Count(), perNodeCount)
	}

	// The Prometheus rollup serves the same names a single daemon does,
	// so scrape configs are mode-blind, and sums the routers' counters,
	// which each node's /metrics carries.
	if wantForwards == 0 {
		t.Fatal("a batch over three nodes forwarded nothing")
	}
	if text := fetchText(t, nodes["a"].ts.URL+"/metrics"); !strings.Contains(text, "jvmgc_fleet_router_forwards_total ") {
		t.Error("node /metrics carries no fleet.router.forwards counter")
	}
	promText := fetchText(t, nodes["a"].ts.URL+"/fleet/metrics")
	for _, name := range []string{
		fmt.Sprintf("jvmgc_fleet_router_forwards_total %d\n", wantForwards),
		"jvmgc_fleet_nodes 3",
		"jvmgc_fleet_nodes_reachable 3",
		"jvmgc_labd_jobs_submitted_total",
		"jvmgc_labd_job_latency_hist_seconds_bucket",
		"jvmgc_fleet_node_queue_depth{node=\"a\"}",
		"jvmgc_labd_traces_seen",
		"jvmgc_labd_traces_retained",
	} {
		if !bytes.Contains([]byte(promText), []byte(name)) {
			t.Errorf("/fleet/metrics missing %q", name)
		}
	}

}

// TestStandaloneRouter: a router with no local daemon still routes
// submissions and serves the fleet surface.
func TestStandaloneRouter(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{})

	urls := map[string]string{
		"a": nodes["a"].ts.URL,
		"b": nodes["b"].ts.URL,
	}
	rt, err := fleet.New(fleet.Config{Nodes: urls})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	c := client.New(front.URL)
	spec := sweepSpecs(1)[0]
	sub, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := labd.SpecKey(spec)
	if want := rt.Ring().Lookup(key); sub.Node != want {
		t.Errorf("standalone router placed on %q, ring owner is %q", sub.Node, want)
	}
	if rt.Stats().Forwards != 1 {
		t.Errorf("forwards = %d, want 1", rt.Stats().Forwards)
	}
	// A standalone router counts into a metric set of its own and serves
	// it, since no daemon's /metrics would show its forwards.
	if text := fetchText(t, front.URL+"/metrics"); !strings.Contains(text, "jvmgc_fleet_router_forwards_total 1\n") {
		t.Errorf("standalone router /metrics does not count its forward:\n%s", text)
	}
}

// TestFleetHangUpSuspectsNoOne: a client that hangs up on a forwarded
// submission or batch says nothing about the nodes it was waiting on.
// The entry node stops retrying, no member becomes suspect, and the
// next submission of the spec is answered by its owner.
func TestFleetHangUpSuspectsNoOne(t *testing.T) {
	nodes, _ := startFleet(t, []string{"n0", "n1", "n2"},
		fleetOpts{chaos: everyNode(t, "labd/job.latency:p=1,delay=400ms")})
	entry := nodes["n0"]
	specs := ownedSpecs(entry.rt, "n2", 2) // a fresh key for each path
	for i, path := range []string{"/v1/jobs", "/v1/jobs/batch"} {
		spec := specs[i]
		var payload []byte
		if path == "/v1/jobs" {
			payload, _ = json.Marshal(labd.SubmitRequest{Job: spec})
		} else {
			payload, _ = json.Marshal(labd.BatchRequest{Jobs: []labd.JobSpec{spec}})
		}
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, entry.ts.URL+path, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // cut off at the deadline
			resp.Body.Close()
		}
		cancel()
		waitUntil(t, 5*time.Second, "the entry node to finish the abandoned request", func() bool {
			return entry.swap.active.Load() == 0
		})

		resp, _, err := post(t, entry.ts.URL, labd.SubmitRequest{Job: spec})
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: resubmission: HTTP %d, %v", path, resp.StatusCode, err)
		}
		if n := resp.Header.Get("X-Labd-Node"); n != "n2" {
			t.Errorf("%s: resubmission answered by %q, want the owner n2", path, n)
		}
		for id, n := range nodes {
			for _, m := range n.g.Memberlist().Members() {
				if m.State != gossip.StateAlive {
					t.Errorf("%s: node %s holds %s as %s", path, id, m.ID, m.StateName)
				}
			}
		}
	}
	if st := entry.rt.Stats(); st.Reroutes != 0 {
		t.Errorf("entry node rerouted %d times for clients that hung up", st.Reroutes)
	}
}

// TestFleetSuspectReturnsToRouting: a node suspected from the data path
// (here an injected partition on one forward) keeps its arcs but is
// routed around, and returns to routing once gossip hears from it — a
// probe's ack or its own refutation.
func TestFleetSuspectReturnsToRouting(t *testing.T) {
	nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{
		// A long suspicion window: b must come back by confirmation,
		// not by dying and being revived.
		suspect: time.Minute,
		chaos: func(id string) *faultinject.Injector {
			if id != "a" {
				return nil
			}
			inj, err := faultinject.Parse(1, "fleet/route.partition:count=1")
			if err != nil {
				t.Fatal(err)
			}
			return inj
		},
	})
	a := nodes["a"]
	// Fresh keys b owns for each step: a keeps what it computes, so a
	// repeated key would show a's memory, not where routing goes.
	specs := ownedSpecs(a.rt, "b", 3)
	resp, _, err := post(t, a.ts.URL, labd.SubmitRequest{Job: specs[0]})
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("partitioned submission: HTTP %d, %v", resp.StatusCode, err)
	}
	if n := resp.Header.Get("X-Labd-Node"); n != "a" {
		t.Errorf("partitioned submission answered by %q, want a (b's arc slid over)", n)
	}
	if st, _, _ := a.g.Memberlist().State("b"); st != gossip.StateSuspect {
		t.Fatalf("b is %v on a after the partition, want suspect", st)
	}
	if !ringIs(a.rt, "a", "b") {
		t.Error("the suspect lost its arcs")
	}
	resp, _, err = post(t, a.ts.URL, labd.SubmitRequest{Job: specs[1]})
	if err != nil || resp.Header.Get("X-Labd-Node") != "a" {
		t.Errorf("submission while b is suspect: node %q, %v; want a", resp.Header.Get("X-Labd-Node"), err)
	}

	for _, n := range nodes {
		n.g.Start()
	}
	waitUntil(t, 10*time.Second, "gossip to return b to routing on a", func() bool {
		st, _, _ := a.g.Memberlist().State("b")
		return st == gossip.StateAlive && a.suspects.Load() == 0
	})
	resp, _, err = post(t, a.ts.URL, labd.SubmitRequest{Job: specs[2]})
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("submission after confirmation: HTTP %d, %v", resp.StatusCode, err)
	}
	if n := resp.Header.Get("X-Labd-Node"); n != "b" {
		t.Errorf("submission after confirmation answered by %q, want the owner b", n)
	}
	if st := a.rt.Stats(); st.Partitions != 1 || st.Reroutes != 1 {
		t.Errorf("a's router: %d partitions, %d reroutes; want 1 and 1", st.Partitions, st.Reroutes)
	}
}

// ownedSpecs returns the first n specs of a seed sweep whose keys the
// router's ring places on owner.
func ownedSpecs(rt *fleet.Router, owner string, n int) []labd.JobSpec {
	var specs []labd.JobSpec
	for _, spec := range sweepSpecs(200) {
		if key, _ := labd.SpecKey(spec); rt.Ring().Lookup(key) == owner && len(specs) < n {
			specs = append(specs, spec)
		}
	}
	return specs
}

func fetchText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

func fetchPeek(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Labd-Sha256")
}
