package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/labd"
)

// TestDataPathSuspicion pins which data-path failures feed gossip: a
// refused connection suspects the node, and routing skips it. An HTTP
// 500, a 200 whose body is not the protocol, a timeout and a caller
// that gave up prove nothing about the node, which stays alive and
// routable. The rules hold alike for a peer fetch, a forwarded
// submission and a batch shard.
func TestDataPathSuspicion(t *testing.T) {
	spec := labd.JobSpec{Kind: labd.KindSimulate, Collector: "CMS", DurationSeconds: 5, Seed: 1}
	key, err := labd.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(t *testing.T) string {
		peer := httptest.NewServer(http.NotFoundHandler())
		peer.Close() // port now refuses
		return peer.URL
	}
	serve := func(h http.HandlerFunc) func(t *testing.T) string {
		return func(t *testing.T) string {
			peer := httptest.NewServer(h)
			t.Cleanup(peer.Close)
			return peer.URL
		}
	}
	failing := serve(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal", http.StatusInternalServerError)
	})
	malformed := serve(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "not the protocol\n")
	})
	stalled := serve(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body lets the server notice the caller leave.
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	cases := []struct {
		name          string
		peer          func(t *testing.T) string
		clientTimeout time.Duration // the router's HTTP client
		callerTimeout time.Duration // the caller's context (0 = none)
		suspect       bool
	}{
		{"connection refused suspects node", refused, time.Second, 0, true},
		{"http 500 keeps node routable", failing, time.Second, 0, false},
		{"malformed 200 keeps node routable", malformed, time.Second, 0, false},
		{"timeout keeps node routable", stalled, 30 * time.Millisecond, 0, false},
		{"done context keeps node routable", stalled, time.Second, 30 * time.Millisecond, false},
	}
	body := func(v any) io.Reader {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.NewReader(b)
	}
	paths := map[string]func(ctx context.Context, rt *Router, front string) error{
		"fetch": func(ctx context.Context, rt *Router, _ string) error {
			if _, ok, _ := rt.Fetch(ctx, key); ok {
				return errors.New("fetch hit")
			}
			return nil
		},
		"submit": func(ctx context.Context, _ *Router, front string) error {
			return postAll(ctx, front+"/v1/jobs", body(labd.SubmitRequest{Job: spec}))
		},
		"batch": func(ctx context.Context, _ *Router, front string) error {
			return postAll(ctx, front+"/v1/jobs/batch", body(labd.BatchRequest{Jobs: []labd.JobSpec{spec}}))
		},
	}
	for _, c := range cases {
		for _, path := range []string{"fetch", "submit", "batch"} {
			t.Run(c.name+"/"+path, func(t *testing.T) {
				// A standalone router over one node b, its gossiper idle,
				// so only the data path can change b's state.
				rt, err := New(Config{
					Nodes:      map[string]string{"b": c.peer(t)},
					HTTPClient: &http.Client{Timeout: c.clientTimeout},
				})
				if err != nil {
					t.Fatal(err)
				}
				g, err := gossip.New(gossip.Config{Self: "r", URL: "http://r", Joining: true,
					Peers: rt.view.Load().urls, OnUpdate: rt.SetMembership})
				if err != nil {
					t.Fatal(err)
				}
				rt.AttachGossip(g)
				t.Cleanup(rt.Close)
				front := httptest.NewServer(rt.Handler())

				ctx := context.Background()
				if c.callerTimeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, c.callerTimeout)
					defer cancel()
				}
				err = paths[path](ctx, rt, front.URL)
				front.Close() // waits for the router's handler to return
				if c.callerTimeout == 0 && err != nil {
					t.Fatal(err)
				}
				if st, _, _ := g.Memberlist().State("b"); (st == gossip.StateSuspect) != c.suspect {
					t.Errorf("b is %v after the failure, want suspect=%v", st, c.suspect)
				}
				if routable := rt.pickHash(rt.view.Load(), finalize(hashString(key)), 0) == "b"; routable == c.suspect {
					t.Errorf("b routable=%v, want %v", routable, !c.suspect)
				}
			})
		}
	}
}

// postAll posts body and reads the whole answer, whatever its status.
func postAll(ctx context.Context, url string, body io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// TestConcurrentPlacementDuringMembershipChange hammers the placement
// read paths while membership swaps under them — the epoch-tagged
// atomic view is what makes this safe; run under -race.
func TestConcurrentPlacementDuringMembershipChange(t *testing.T) {
	three := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c"}
	four := map[string]string{"a": "http://a", "b": "http://b", "c": "http://c", "d": "http://d"}
	valid := map[string]bool{"": true, "a": true, "b": true, "c": true, "d": true}

	rt, err := New(Config{Self: "a", Nodes: three})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	keys := testKeys(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i+w)%len(keys)]
				if owner := rt.pickHash(rt.view.Load(), finalize(hashString(k)), 0); !valid[owner] {
					errs <- "pick returned unknown node " + owner
					return
				}
				r := rt.Ring()
				if owner := r.Lookup(k); !valid[owner] {
					errs <- "Lookup returned unknown node " + owner
					return
				}
				r.Walk(k, func(string) bool { return false })
				_ = rt.Stats()
			}
		}(w)
	}
	for i := 0; i < 400; i++ {
		if i%2 == 0 {
			rt.SetMembership(uint64(i+1), four, []string{"b"})
		} else {
			rt.SetMembership(uint64(i+1), three, nil)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if got := rt.Epoch(); got != 400 {
		t.Errorf("final epoch = %d, want 400", got)
	}
	if st := rt.Stats(); st.EpochSwaps != 400 {
		t.Errorf("epoch swaps = %d, want 400", st.EpochSwaps)
	}
}

// TestSetMembershipRejectsOversizedRing: an invalid membership (beyond
// the ring's node bound) must keep the last good view rather than
// replace it.
func TestSetMembershipRejectsOversizedRing(t *testing.T) {
	rt, err := New(Config{Self: "a", Nodes: map[string]string{"a": "http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	huge := make(map[string]string, maxRingNodes+1)
	for i := 0; i <= maxRingNodes; i++ {
		huge[fmt.Sprintf("n%02d", i)] = "http://x"
	}
	rt.SetMembership(9, huge, nil)
	if rt.Epoch() != 0 {
		t.Fatal("oversized membership replaced the view")
	}
	if rt.Ring().Len() != 1 {
		t.Fatalf("ring len = %d, want the original 1", rt.Ring().Len())
	}
}

// BenchmarkHandoffPlan measures planning a graceful leave's handoff:
// resolving the post-leave owner for every locally cached key. Pure
// ring lookups — allocation-free, so a leave's planning cost is linear
// and tiny even for large caches.
func BenchmarkHandoffPlan(b *testing.B) {
	rt, err := New(Config{Self: "a", Nodes: map[string]string{
		"a": "http://a", "b": "http://b", "c": "http://c", "d": "http://d", "e": "http://e",
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	keys := testKeys(512)
	ring := rt.Ring()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved := 0
		for _, k := range keys {
			if owner := ring.Lookup(k); owner != "a" {
				moved++
			}
		}
		if moved == 0 {
			b.Fatal("no keys to hand off")
		}
	}
}

// TestFetchBoundsBody pins a peer fetch to labd.MaxResultBytes, the
// bound a handoff PUT and a kept replica have: a peer's 200 one byte
// over it, with the body's own digest, is a miss whether its length is
// declared or only read, and the peer is not suspected; a body exactly
// at the bound is a hit.
func TestFetchBoundsBody(t *testing.T) {
	big := bytes.Repeat([]byte{'x'}, labd.MaxResultBytes+1)
	cases := []struct {
		name     string
		size     int
		declared bool
		hit      bool
	}{
		{"at the bound", labd.MaxResultBytes, true, true},
		{"declared over the bound", labd.MaxResultBytes + 1, true, false},
		{"read over the bound", labd.MaxResultBytes + 1, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			body := big[:c.size]
			digest := labd.Digest(body)
			peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-Labd-Sha256", digest)
				if c.declared {
					w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				}
				_, _ = w.Write(body)
			}))
			t.Cleanup(peer.Close)
			rt, err := New(Config{Nodes: map[string]string{"b": peer.URL}})
			if err != nil {
				t.Fatal(err)
			}
			g, err := gossip.New(gossip.Config{Self: "r", URL: "http://r", Joining: true,
				Peers: rt.view.Load().urls, OnUpdate: rt.SetMembership})
			if err != nil {
				t.Fatal(err)
			}
			rt.AttachGossip(g)
			t.Cleanup(rt.Close)

			got, ok, _ := rt.Fetch(context.Background(), "k")
			if ok != c.hit || (ok && !bytes.Equal(got, body)) {
				t.Errorf("Fetch of a %d-byte body: %d bytes, hit=%v; want hit=%v", c.size, len(got), ok, c.hit)
			}
			if st, _, _ := g.Memberlist().State("b"); st == gossip.StateSuspect {
				t.Error("an oversized answer made the peer a suspect")
			}
		})
	}
}
