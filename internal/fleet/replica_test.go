package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/fleet"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

// post submits one request body to a node and reads the whole reply.
// The read error is returned rather than failed on, so relay tests can
// inspect a cut body.
func post(t *testing.T, url string, req labd.SubmitRequest) (*http.Response, []byte, error) {
	t.Helper()
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// settled waits for an entry node's replica counters to read kept and
// rejects: the entry node hashes and keeps a relayed hit only after the
// client has its bytes.
func settled(t *testing.T, rt *fleet.Router, kept, rejects int64) fleet.RouterStats {
	t.Helper()
	waitUntil(t, 5*time.Second, "the entry node's replica counters", func() bool {
		st := rt.Stats()
		return st.ReplicasKept == kept && st.ReplicaRejects == rejects
	})
	return rt.Stats()
}

// ownedSpec returns a spec whose key the ring places on want, and the key.
func ownedSpec(t *testing.T, rt *fleet.Router, want string) (labd.JobSpec, string) {
	t.Helper()
	for seed := uint64(1); seed < 1000; seed++ {
		spec := labd.JobSpec{Kind: labd.KindSimulate, Collector: "G1",
			HeapBytes: 4 << 30, DurationSeconds: 5, Seed: seed}
		key, err := labd.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Ring().Lookup(key) == want {
			return spec, key
		}
	}
	t.Fatalf("no spec in 1000 seeds lands on %q", want)
	return labd.JobSpec{}, ""
}

// TestFleetReplicaHit: a hit submitted to a node that does not own the
// key is forwarded once, kept by the entry node after its digest
// checks out, and from then on answered by the entry node itself with
// the owner's exact bytes.
func TestFleetReplicaHit(t *testing.T) {
	nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{})
	spec, key := ownedSpec(t, nodes["a"].rt, "a")
	owner, entry := nodes["a"], nodes["b"]
	req := labd.SubmitRequest{Job: spec}

	resp, want, err := post(t, owner.ts.URL, req)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Labd-Cache") != "miss" {
		t.Fatalf("priming the owner: HTTP %d, cache %q, %v",
			resp.StatusCode, resp.Header.Get("X-Labd-Cache"), err)
	}

	// First hit through the entry node: relayed from the owner, kept.
	resp, got, err := post(t, entry.ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("relayed hit (%d bytes) differs from the owner's answer (%d bytes)", len(got), len(want))
	}
	if c, n := resp.Header.Get("X-Labd-Cache"), resp.Header.Get("X-Labd-Node"); c != "hit" || n != "a" {
		t.Errorf("relayed hit: cache %q node %q, want hit from a", c, n)
	}
	if resp.Header.Get("X-Labd-Sha256") != "" {
		t.Error("the entry node relayed the owner's digest header to the client")
	}
	if st := settled(t, entry.rt, 1, 0); st.Forwards != 1 || st.ReplicaHits != 0 {
		t.Fatalf("after the relayed hit: %+v, want 1 forward, 1 kept", st)
	}

	// The repeat is served where it lands.
	resp, got, err = post(t, entry.ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("replica hit (%d bytes) differs from the owner's answer (%d bytes)", len(got), len(want))
	}
	if c, n := resp.Header.Get("X-Labd-Cache"), resp.Header.Get("X-Labd-Node"); c != "hit" || n != "b" {
		t.Errorf("replica hit: cache %q node %q, want hit from b", c, n)
	}
	if k := resp.Header.Get("X-Labd-Key"); k != key {
		t.Errorf("replica hit key %q, want %q", k, key)
	}
	if resp.ContentLength != int64(len(want)) {
		t.Errorf("replica hit Content-Length %d, want %d", resp.ContentLength, len(want))
	}
	if st := entry.rt.Stats(); st.Forwards != 1 || st.ReplicaHits != 1 || st.ReplicasKept != 1 {
		t.Errorf("after the replica hit: %+v, want forwards still 1 and 1 replica hit", st)
	}

	// One simulation fleet-wide, and exactly one hit counted per hit
	// request: the replica hit on the entry node, the relayed one on the
	// owner.
	for id, n := range nodes {
		c := n.srv.NodeState().Counters
		sims, hits := c["labd.simulations"], c["labd.cache.hits"]
		if wantSims := map[string]int64{"a": 1, "b": 0}[id]; sims != wantSims || hits != 1 {
			t.Errorf("node %s: %d simulations, %d hits; want %d and 1", id, sims, hits, wantSims)
		}
	}
}

// TestFleetReplicaBypass: an async submission, and any submission to a
// draining entry node, still goes to the owner even when the entry
// node holds a replica.
func TestFleetReplicaBypass(t *testing.T) {
	nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{})
	spec, _ := ownedSpec(t, nodes["a"].rt, "a")
	entry := nodes["b"]
	req := labd.SubmitRequest{Job: spec}
	for i := 0; i < 2; i++ { // the owner's miss, then the kept hit
		if resp, _, err := post(t, entry.ts.URL, req); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up %d: HTTP %d, %v", i, resp.StatusCode, err)
		}
	}
	if st := settled(t, entry.rt, 1, 0); st.Forwards != 2 {
		t.Fatalf("after warm-up: %+v, want 2 forwards and 1 kept", st)
	}

	resp, _, err := post(t, entry.ts.URL, labd.SubmitRequest{Job: spec, Async: true})
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async: HTTP %d, %v", resp.StatusCode, err)
	}
	if n := resp.Header.Get("X-Labd-Node"); n != "a" {
		t.Errorf("async submission answered by %q, want the owner a", n)
	}
	if st := entry.rt.Stats(); st.Forwards != 3 || st.ReplicaHits != 0 || st.ReplicasKept != 1 {
		t.Errorf("after async: %+v, want 3 forwards, no replica hit, nothing new kept", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := entry.srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _, err = post(t, entry.ts.URL, req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("draining entry: HTTP %d, %v", resp.StatusCode, err)
	}
	if c, n := resp.Header.Get("X-Labd-Cache"), resp.Header.Get("X-Labd-Node"); c != "hit" || n != "a" {
		t.Errorf("draining entry: cache %q node %q, want hit from the owner a", c, n)
	}
	if st := entry.rt.Stats(); st.Forwards != 4 || st.ReplicaHits != 0 || st.ReplicasKept != 1 {
		t.Errorf("after drain: %+v, want 4 forwards, no replica hit, nothing new kept", st)
	}
}

// fakeOwner is a fleet member whose POST /v1/jobs answers are scripted,
// so a test can hand the entry node a wrong digest or a cut body.
type fakeOwner struct {
	ts      *httptest.Server
	replica atomic.Int64 // requests that carried labd.HeaderReplica
	answer  atomic.Pointer[func(w http.ResponseWriter)]
}

func newFakeOwner(t *testing.T) *fakeOwner {
	f := &fakeOwner{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if r.Header.Get(labd.HeaderReplica) != "" {
			f.replica.Add(1)
		}
		w.Header().Set("X-Labd-Node", "owner")
		(*f.answer.Load())(w)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeOwner) set(answer func(w http.ResponseWriter)) { f.answer.Store(&answer) }

// hit answers a cache hit of body with the given digest and declared
// length, writing only the first n bytes before the handler returns —
// which closes the connection when n is short.
func hit(body []byte, digest string, n int) func(w http.ResponseWriter) {
	return func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Header().Set("X-Labd-Cache", "hit")
		if digest != "" {
			w.Header().Set("X-Labd-Sha256", digest)
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body[:n])
	}
}

// startEntry builds a real fleet node "entry" (router plus daemon)
// whose only peer is the fake owner.
func startEntry(t *testing.T, f *fakeOwner) (*fleet.Router, *labd.Server, string) {
	t.Helper()
	swap := &handlerSwap{}
	ts := httptest.NewServer(swap)
	t.Cleanup(ts.Close)
	rt, err := fleet.New(fleet.Config{Self: "entry",
		Nodes: map[string]string{"entry": ts.URL, "owner": f.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := labd.New(labd.Config{Workers: 1, NodeID: "entry", Peers: rt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	rt.SetLocal(srv)
	swap.set(rt.Handler())
	return rt, srv, ts.URL
}

// TestFleetReplicaDigestMismatch: a relayed hit whose bytes do not
// match the owner's digest — or that arrive cut short — still reaches
// the client as the owner sent it, but the entry node does not keep it
// and forwards the next request again.
func TestFleetReplicaDigestMismatch(t *testing.T) {
	f := newFakeOwner(t)
	rt, srv, url := startEntry(t, f)
	spec, key := ownedSpec(t, rt, "owner")
	req := labd.SubmitRequest{Job: spec}
	body := bytes.Repeat([]byte(`{"result":"owner bytes"}`), 400)

	f.set(hit(body, labd.Digest([]byte("other bytes")), len(body)))
	for i := 1; i <= 2; i++ {
		resp, got, err := post(t, url, req)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("request %d: relayed %d bytes, %v; want the owner's %d", i, len(got), err, len(body))
		}
		if n := resp.Header.Get("X-Labd-Node"); n != "owner" {
			t.Errorf("request %d answered by %q, want the owner", i, n)
		}
		if st := settled(t, rt, 0, int64(i)); st.Forwards != int64(i) {
			t.Errorf("request %d: %+v, want %d forwards and rejects, nothing kept", i, st, i)
		}
	}
	if _, ok := srv.CachePeek(key); ok {
		t.Fatal("the entry node kept bytes whose digest did not match")
	}

	// A hit cut mid-body is relayed as cut and not kept either.
	f.set(hit(body, labd.Digest(body), 7000))
	if _, got, err := post(t, url, req); !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 7000 {
		t.Fatalf("cut hit: read %d bytes, error %v; want 7000 and unexpected EOF", len(got), err)
	}
	settled(t, rt, 0, 3)
	if _, ok := srv.CachePeek(key); ok {
		t.Fatal("the entry node kept a cut body")
	}

	// A hit without a digest is relayed and not verified, so not kept.
	f.set(hit(body, "", len(body)))
	if _, got, err := post(t, url, req); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("undigested hit: %d bytes, %v", len(got), err)
	}
	if st := rt.Stats(); st.ReplicaRejects != 3 || st.ReplicasKept != 0 {
		t.Errorf("after the undigested hit: %+v, want nothing kept or rejected", st)
	}

	// The matching digest is kept, and the next request never leaves.
	f.set(hit(body, labd.Digest(body), len(body)))
	for i := 0; i < 2; i++ {
		if _, got, err := post(t, url, req); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("verified hit %d: %d bytes, %v", i, len(got), err)
		}
		settled(t, rt, 1, 3)
	}
	if st := rt.Stats(); st.Forwards != 5 || st.ReplicasKept != 1 || st.ReplicaHits != 1 {
		t.Errorf("after the verified hit: %+v, want 5 forwards, 1 kept, 1 replica hit", st)
	}
	if got := f.replica.Load(); got != 5 {
		t.Errorf("owner saw %d forwards asking for a digest, want all 5", got)
	}
}

// TestRelayKeepsLength: the relay declares the owner's Content-Length,
// so a body the owner cuts short reaches the client as an error, not as
// a complete-looking shorter 200. A standalone router keeps no
// replicas, so it never asks the owner to hash its hits either.
func TestRelayKeepsLength(t *testing.T) {
	f := newFakeOwner(t)
	rt, err := fleet.New(fleet.Config{Nodes: map[string]string{"owner": f.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	req := labd.SubmitRequest{Job: labd.JobSpec{Kind: labd.KindSimulate, Seed: 1}}
	body := bytes.Repeat([]byte("x"), 20000)

	f.set(func(w http.ResponseWriter) {
		w.Header().Set("Content-Length", "20000")
		w.Header().Set("X-Labd-Cache", "miss")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body[:7000])
	})
	resp, got, err := post(t, front.URL, req)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut relay: read %d bytes with error %v, want unexpected EOF", len(got), err)
	}
	if resp.ContentLength != 20000 {
		t.Errorf("cut relay declared Content-Length %d, want 20000", resp.ContentLength)
	}

	f.set(hit(body, labd.Digest(body), len(body)))
	resp, got, err = post(t, front.URL, req)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("whole relay: %d bytes, %v", len(got), err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("whole relay: Content-Length %d, transfer encoding %v; want %d, none",
			resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if got := f.replica.Load(); got != 0 {
		t.Errorf("a standalone router asked the owner for %d digests, want 0", got)
	}
	if st := rt.Stats(); st.Forwards != 2 || st.ReplicasKept != 0 || st.ReplicaRejects != 0 {
		t.Errorf("standalone router stats %+v, want 2 forwards and no replica activity", st)
	}
}

// TestFleetReplicasSpareOwnedHits: with a hot set larger than one
// node's cache, where each node's own share still fits, replicas take
// only the room left over. Every request stays a hit with the owner's
// bytes, and no node recomputes a result, as in a fleet without
// replicas.
func TestFleetReplicasSpareOwnedHits(t *testing.T) {
	const n = 24
	specs := sweepSpecs(n)
	ring := fleet.NewRing([]string{"a", "b"}, 0)
	owners := make([]string, n)
	owned := map[string]int{}
	for i, spec := range specs {
		key, err := labd.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		owners[i] = ring.Lookup(key)
		owned[owners[i]]++
	}
	entries := max(owned["a"], owned["b"]) + 2
	if entries >= n {
		t.Fatalf("owned shares %v leave no hot set larger than a %d-entry cache", owned, entries)
	}
	nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{labd: func(c *labd.Config) { c.CacheEntries = entries }})

	// Each owner computes its share and serves one hit on every result.
	want := make([][]byte, n)
	for i, spec := range specs {
		for _, cache := range []string{"miss", "hit"} {
			resp, got, err := post(t, nodes[owners[i]].ts.URL, labd.SubmitRequest{Job: spec})
			if err != nil || resp.Header.Get("X-Labd-Cache") != cache {
				t.Fatalf("spec %d on its owner: cache %q, %v; want %s", i, resp.Header.Get("X-Labd-Cache"), err, cache)
			}
			want[i] = got
		}
	}

	// The whole hot set, three times through both entry nodes.
	for round := 0; round < 3; round++ {
		for i, spec := range specs {
			for _, id := range []string{"a", "b"} {
				resp, got, err := post(t, nodes[id].ts.URL, labd.SubmitRequest{Job: spec})
				if err != nil || resp.Header.Get("X-Labd-Cache") != "hit" || !bytes.Equal(got, want[i]) {
					t.Fatalf("round %d, spec %d via %s: cache %q, %d bytes, %v; want a hit with the owner's %d bytes",
						round, i, id, resp.Header.Get("X-Labd-Cache"), len(got), err, len(want[i]))
				}
			}
		}
	}
	kept := int64(0)
	for id, node := range nodes {
		if sims := node.srv.NodeState().Counters["labd.simulations"]; sims != int64(owned[id]) {
			t.Errorf("node %s ran %d simulations, want its %d owned specs once each", id, sims, owned[id])
		}
		if l := node.srv.CacheLen(); l > entries {
			t.Errorf("node %s holds %d entries, bound %d", id, l, entries)
		}
		kept += node.rt.Stats().ReplicasKept
	}
	if kept == 0 {
		t.Error("no replica was kept in the room the owned results left")
	}
}

// TestFleetChurnLeavesReplicasBehind: synchronous submissions leave a
// replica of every key on every node of a gossip fleet. A graceful
// leave hands off only the leaver's own results, and a joiner warms
// each key of its arc once, even when two members hold it as their own.
func TestFleetChurnLeavesReplicasBehind(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startFleet(t, []string{"a", "b", "c"}, fleetOpts{tick: 20 * time.Millisecond, suspect: 300 * time.Millisecond})
	specs := sweepSpecs(16)
	keys := make([]string, len(specs))
	for i, spec := range specs {
		key, err := labd.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
	}
	owned := map[string]int{}
	for _, key := range keys {
		owned[nodes["a"].rt.Ring().Lookup(key)]++
	}

	// Twice through every node: each owner computes its keys, and the
	// other two keep replicas of them.
	for round := 0; round < 2; round++ {
		for i, spec := range specs {
			for _, id := range []string{"a", "b", "c"} {
				if resp, _, err := post(t, nodes[id].ts.URL, labd.SubmitRequest{Job: spec}); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d, spec %d via %s: HTTP %d, %v", round, i, id, resp.StatusCode, err)
				}
			}
		}
	}
	for id, n := range nodes {
		waitUntil(t, 5*time.Second, "node "+id+" to hold every key", func() bool {
			return n.srv.CacheLen() == len(keys)
		})
		if got := len(n.srv.CacheKeys()); got != owned[id] {
			t.Fatalf("node %s lists %d keys as its own, want the %d it owns", id, got, owned[id])
		}
	}

	// b leaves: it pushes its own results to their new owners, never the
	// replicas those owners computed.
	if err := client.New(nodes["b"].ts.URL).Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if got := nodes["b"].srv.NodeState().Counters["fleet.gossip.handoff.keys"]; got != int64(owned["b"]) {
		t.Errorf("b handed off %d keys, want its %d own", got, owned["b"])
	}
	received := int64(0)
	for _, id := range []string{"a", "c"} {
		received += nodes[id].srv.NodeState().Counters["labd.cache.handoff.received"]
		waitUntil(t, 10*time.Second, id+" to place exactly {a,c}", func() bool {
			return ringIs(nodes[id].rt, "a", "c")
		})
	}
	if received != int64(owned["b"]) {
		t.Errorf("a and c received %d handed-off keys, want %d", received, owned["b"])
	}

	// d's arc in the grown ring; one of its keys is also held as its own
	// by the member that does not own it, as a bounded-load slide leaves.
	grown := fleet.NewRing([]string{"a", "c", "d"}, 0)
	shrunk := fleet.NewRing([]string{"a", "c"}, 0)
	var arc []string
	for _, key := range keys {
		if grown.Lookup(key) == "d" {
			arc = append(arc, key)
		}
	}
	if len(arc) == 0 {
		t.Fatal("no key of the sweep lands on d")
	}
	holder := shrunk.Lookup(arc[0])
	other := map[string]string{"a": "c", "c": "a"}[holder]
	body, ok := nodes[holder].srv.CachePeek(arc[0])
	if !ok {
		t.Fatalf("%s does not hold %s", holder, arc[0])
	}
	put, err := http.NewRequest(http.MethodPut, nodes[other].ts.URL+"/v1/cache/"+arc[0], bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	put.Header.Set("X-Labd-Sha256", labd.Digest(body))
	resp, err := http.DefaultClient.Do(put)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT to %s: %v, %v", other, resp, err)
	}
	resp.Body.Close()

	d := startJoiner(t, "d")
	if err := d.rt.JoinAndWarm(ctx, []string{nodes["a"].ts.URL}); err != nil {
		t.Fatal(err)
	}
	c := d.srv.NodeState().Counters
	if c["fleet.gossip.warmup.keys"] != int64(len(arc)) || c["labd.cache.warmed"] != int64(len(arc)) {
		t.Errorf("d warmed %d keys (%d cache seeds), want its arc's %d once each",
			c["fleet.gossip.warmup.keys"], c["labd.cache.warmed"], len(arc))
	}
	got := d.srv.CacheKeys()
	sort.Strings(got)
	sort.Strings(arc)
	if fmt.Sprint(got) != fmt.Sprint(arc) {
		t.Errorf("d holds %v, want its arc %v", got, arc)
	}
}
