package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/labd"
)

// TestPeerProbeReusesConnections: a fresh-spec miss whose owner's probe
// window is open probes the peer's cache (GET /v1/cache/{key}), which
// answers 404 with a short JSON body. The probe reads that body before
// closing it, so the connection goes back to the pool: 40 misses cost
// each node a few accepted connections (the client's, one from its
// peer), not one per miss. Each window is reopened (a view swap) before
// each miss, so that every miss probes.
func TestPeerProbeReusesConnections(t *testing.T) {
	ids := []string{"a", "b"}
	nodes, _ := startFleet(t, ids, fleetOpts{})
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	urls := map[string]string{}
	for id, n := range nodes {
		urls[id] = n.ts.URL
	}

	const misses = 40
	for i := range misses {
		for _, n := range nodes {
			n.rt.SetMembership(n.rt.Epoch(), urls, nil)
		}
		entry := nodes[ids[i%2]]
		spec := labd.JobSpec{Kind: labd.KindSimulate, Collector: "CMS",
			HeapBytes: 2 << 30, DurationSeconds: 5, Seed: uint64(5000 + i)}
		payload, err := json.Marshal(labd.SubmitRequest{Job: spec})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Post(entry.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Labd-Cache") != "miss" {
			t.Fatalf("miss %d via %s: HTTP %d, cache %q, %v", i, entry.id,
				resp.StatusCode, resp.Header.Get("X-Labd-Cache"), err)
		}
	}

	var probes int64
	for _, n := range nodes {
		probes += n.rt.Stats().PeerProbes
	}
	if probes < misses {
		t.Fatalf("%d peer probes for %d misses; every miss must probe its peer", probes, misses)
	}
	for _, id := range ids {
		if got := nodes[id].accepted.Load(); got > 4 {
			t.Errorf("node %s accepted %d connections for %d misses and %d probes, want at most 4",
				id, got, misses, probes)
		}
	}
}

// TestFleetSubmitEdge pins what a client sees at the edge of a fleet
// node for a submission the entry node owns and serves in process, and
// for one it forwards to the owner: the flaky-HTTP fault fires once per
// submission, on the node that serves it; X-Labd-Node names that node;
// an invalid spec gets the daemon's own 400 body; an async submission
// gets 202 with its job's Location.
func TestFleetSubmitEdge(t *testing.T) {
	submit := func(url string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}
	encode := func(req labd.SubmitRequest) []byte {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("flaky", func(t *testing.T) {
		injs := map[string]*faultinject.Injector{}
		for _, id := range []string{"a", "b"} {
			inj, err := faultinject.Parse(1, labd.FaultHTTPFlaky+":p=1")
			if err != nil {
				t.Fatal(err)
			}
			injs[id] = inj
		}
		nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{
			chaos: func(id string) *faultinject.Injector { return injs[id] }})
		a := nodes["a"]
		owned, _ := ownedSpec(t, a.rt, "a")
		forwarded, _ := ownedSpec(t, a.rt, "b")
		for i, c := range []struct {
			spec  labd.JobSpec
			owner string
		}{{owned, "a"}, {forwarded, "b"}} {
			resp, body := submit(a.ts.URL, encode(labd.SubmitRequest{Job: c.spec}))
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Errorf("job owned by %s: HTTP %d, Retry-After %q; want 503 with Retry-After",
					c.owner, resp.StatusCode, resp.Header.Get("Retry-After"))
			}
			if !strings.Contains(string(body), "injected flaky response") {
				t.Errorf("job owned by %s: body %q, want the injected fault's", c.owner, body)
			}
			if n := resp.Header.Get("X-Labd-Node"); n != c.owner {
				t.Errorf("job owned by %s answered with X-Labd-Node %q", c.owner, n)
			}
			// One firing per submission, on the node that served it.
			total := injs["a"].Fired(labd.FaultHTTPFlaky) + injs["b"].Fired(labd.FaultHTTPFlaky)
			if total != int64(i+1) || injs[c.owner].Fired(labd.FaultHTTPFlaky) != 1 {
				t.Errorf("after %d submissions: a fired %d, b fired %d; want one firing each, on the owner",
					i+1, injs["a"].Fired(labd.FaultHTTPFlaky), injs["b"].Fired(labd.FaultHTTPFlaky))
			}
		}
	})

	t.Run("answers", func(t *testing.T) {
		nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{})
		a := nodes["a"]

		// An invalid spec cannot be placed: the entry node's daemon
		// answers it, with the body a standalone daemon writes.
		solo, err := labd.New(labd.Config{Workers: 1, QueueDepth: 4})
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
		bad := encode(labd.SubmitRequest{Job: labd.JobSpec{Kind: labd.KindSimulate,
			Collector: "CMS", DurationSeconds: -1}})
		wantResp, want := submit(tsSolo.URL, bad)
		if wantResp.StatusCode != http.StatusBadRequest {
			t.Fatalf("standalone daemon answered the invalid spec with HTTP %d", wantResp.StatusCode)
		}
		for _, id := range []string{"a", "b"} {
			resp, body := submit(nodes[id].ts.URL, bad)
			if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(body, want) {
				t.Errorf("invalid spec via %s: HTTP %d %q, want 400 %q", id, resp.StatusCode, body, want)
			}
			if n := resp.Header.Get("X-Labd-Node"); n != id {
				t.Errorf("invalid spec via %s answered with X-Labd-Node %q", id, n)
			}
		}

		// Synchronous and async submissions, owned and forwarded: the
		// owner answers, and says so.
		owned := ownedSpecs(a.rt, "a", 2)
		forwarded := ownedSpecs(a.rt, "b", 2)
		for _, c := range []struct {
			spec  labd.JobSpec
			async bool
			owner string
		}{{owned[0], false, "a"}, {forwarded[0], false, "b"}, {owned[1], true, "a"}, {forwarded[1], true, "b"}} {
			resp, body := submit(a.ts.URL, encode(labd.SubmitRequest{Job: c.spec, Async: c.async}))
			want := http.StatusOK
			if c.async {
				want = http.StatusAccepted
			}
			if resp.StatusCode != want {
				t.Errorf("job owned by %s (async %v): HTTP %d %s, want %d", c.owner, c.async, resp.StatusCode, body, want)
			}
			if n := resp.Header.Get("X-Labd-Node"); n != c.owner {
				t.Errorf("job owned by %s (async %v) answered with X-Labd-Node %q", c.owner, c.async, n)
			}
			if loc := resp.Header.Get("Location"); c.async && !strings.HasPrefix(loc, "/v1/jobs/") {
				t.Errorf("async job owned by %s: Location %q, want /v1/jobs/<id>", c.owner, loc)
			}
		}
	})
}
