package labd_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
	"jvmgc/internal/obs"
)

// startDaemonURL is startDaemon plus the listener URL, for tests that
// hit endpoints the client has no wrapper for.
func startDaemonURL(t *testing.T, cfg labd.Config) (*client.Client, *labd.Server, string) {
	t.Helper()
	srv, err := labd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return client.New(ts.URL), srv, ts.URL
}

// TestHealthzJSON: /healthz answers liveness only — {"status":"ok"},
// then {"status":"draining"} with 503 once the daemon drains. The
// daemon's reading is /v1/state (TestNodeStateSnapshot).
func TestHealthzJSON(t *testing.T) {
	_, srv, url := startDaemonURL(t, labd.Config{Workers: 2, QueueDepth: 8, NodeID: "solo-1"})
	healthz := func(wantStatus int, wantBody string) {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantStatus || string(body) != wantBody {
			t.Errorf("/healthz = %d %q, want %d %q", resp.StatusCode, body, wantStatus, wantBody)
		}
		if got := resp.Header.Get("X-Labd-Node"); got != "solo-1" {
			t.Errorf("X-Labd-Node = %q, want solo-1", got)
		}
	}
	healthz(http.StatusOK, "{\"status\":\"ok\"}\n")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	healthz(http.StatusServiceUnavailable, "{\"status\":\"draining\"}\n")
}

// TestBatchEndpoint: one POST, many jobs, per-job completion events —
// duplicates coalesce, an invalid spec fails only its own slot, and
// every result is byte-identical to a sync submission of the same spec.
func TestBatchEndpoint(t *testing.T) {
	c, _, _ := startDaemonURL(t, labd.Config{Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	good := labd.JobSpec{
		Kind:            labd.KindSimulate,
		Collector:       "G1",
		HeapBytes:       2 << 30,
		DurationSeconds: 5,
		Seed:            21,
	}
	other := good
	other.Seed = 22
	jobs := []labd.JobSpec{good, other, good, {}} // [3] has no kind: invalid

	var mu sync.Mutex
	events := 0
	results, err := c.Batch(ctx, jobs, 0, func(labd.BatchEvent) {
		mu.Lock()
		events++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	if events != len(jobs) {
		t.Errorf("observed %d events, want %d", events, len(jobs))
	}
	for i := 0; i < 3; i++ {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
	}
	if results[3].Err == nil {
		t.Error("invalid spec at index 3 must fail its slot")
	}
	if !bytes.Equal(results[0].Bytes, results[2].Bytes) {
		t.Error("duplicate specs in one batch returned different bytes")
	}
	if results[0].Key != results[2].Key {
		t.Error("duplicate specs got different content keys")
	}

	// Batch results are the same canonical documents sync submission
	// serves (trailing newline restored by the client).
	sub, err := c.Submit(ctx, good)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cache != "hit" {
		t.Errorf("post-batch sync submit = %q, want hit (batch populated the cache)", sub.Cache)
	}
	if !bytes.Equal(sub.Bytes, results[0].Bytes) {
		t.Errorf("batch bytes (%d) differ from sync bytes (%d)",
			len(results[0].Bytes), len(sub.Bytes))
	}
}

// TestCachePeek: /v1/cache/{key} serves cached bytes with a verifiable
// digest, 404s on unknown keys, and never triggers a computation.
func TestCachePeek(t *testing.T) {
	c, srv, url := startDaemonURL(t, labd.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	sub, err := c.Submit(ctx, labd.JobSpec{
		Kind:            labd.KindSimulate,
		Collector:       "Serial",
		HeapBytes:       1 << 30,
		DurationSeconds: 5,
		Seed:            31,
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(url + "/v1/cache/" + sub.Key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peek: HTTP %d", resp.StatusCode)
	}
	if !bytes.Equal(body, sub.Bytes) {
		t.Error("peeked bytes differ from the submission's result")
	}
	sum := sha256.Sum256(body)
	if got := resp.Header.Get("X-Labd-Sha256"); got != hex.EncodeToString(sum[:]) {
		t.Errorf("digest header %q does not match body", got)
	}

	miss, err := http.Get(url + "/v1/cache/" + "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	miss.Body.Close()
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", miss.StatusCode)
	}
	if sims := srv.NodeState().Counters["labd.simulations"]; sims != 1 {
		t.Errorf("peeks ran %d extra simulations, want the original 1 only", sims)
	}
}

// TestNodeStateSnapshot: /v1/state is the daemon's one reading and the
// mergeable fleet snapshot — identity, uptime, drain status, the queue,
// running and cache gauges, per-tier hit counters, histogram bytes that
// decode, the Go runtime's vitals, and only the newest RecentTraces
// traces, newest first.
func TestNodeStateSnapshot(t *testing.T) {
	c, srv, _ := startDaemonURL(t, labd.Config{Workers: 2, QueueDepth: 8, NodeID: "solo-2",
		Tracer: obs.NewTracer(obs.Config{Seed: 7})})
	ctx := context.Background()

	spec := labd.JobSpec{
		Kind:            labd.KindSimulate,
		Collector:       "CMS",
		HeapBytes:       2 << 30,
		DurationSeconds: 5,
		Seed:            41,
	}
	// One miss, then hits: more submissions, each its own trace, than
	// the reading carries.
	const submissions = labd.RecentTraces + 2
	traceIDs := make([]string, submissions)
	for i := range traceIDs {
		sub, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (sub.Cache != "hit" || sub.Node != "solo-2") {
			t.Fatalf("resubmission: disposition %q from node %q, want a hit from solo-2", sub.Cache, sub.Node)
		}
		traceIDs[i] = sub.TraceID
	}

	st, err := c.NodeState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "solo-2" {
		t.Errorf("node = %q, want solo-2", st.Node)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime = %g, want > 0", st.UptimeSeconds)
	}
	if st.Draining {
		t.Error("a serving daemon reports draining")
	}
	if got := st.Counters["labd.jobs.submitted"]; got != submissions {
		t.Errorf("submitted counter = %d, want %d", got, submissions)
	}
	if got := st.Gauges["labd.workers"]; got != 2 {
		t.Errorf("workers gauge = %g, want 2", got)
	}
	if q, r := st.Gauges["labd.queue.depth"], st.Gauges["labd.jobs.running"]; q != 0 || r != 0 {
		t.Errorf("queue=%g running=%g after completion, want 0/0", q, r)
	}
	if got := st.Gauges["labd.cache.entries"]; got != 1 {
		t.Errorf("cache entries = %g, want 1", got)
	}
	if got := st.Counters["labd.cache.hits.memory"]; got != submissions-1 {
		t.Errorf("memory hits = %d, want %d (the resubmissions)", got, submissions-1)
	}
	h, err := hdrhist.Decode(st.Hists["labd_job_latency_hist_seconds"])
	if err != nil {
		t.Fatalf("latency histogram does not decode: %v", err)
	}
	if h.Count() != submissions {
		t.Errorf("latency histogram count = %d, want %d", h.Count(), submissions)
	}
	if _, err := hdrhist.Decode(st.Hists["labd_queue_wait_seconds"]); err != nil {
		t.Fatalf("queue histogram does not decode: %v", err)
	}
	if st.Runtime.HeapObjectsBytes <= 0 || st.Runtime.Goroutines < 1 {
		t.Errorf("runtime vitals = %+v, want a non-zero heap and goroutines", st.Runtime)
	}
	if len(st.Recent) != labd.RecentTraces {
		t.Fatalf("reading carries %d recent traces, want the cap %d", len(st.Recent), labd.RecentTraces)
	}
	for i, tr := range st.Recent {
		if want := traceIDs[submissions-1-i]; tr.ID != want {
			t.Errorf("recent[%d] = %s, want %s (newest first)", i, tr.ID, want)
		}
	}

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if st, err = c.NodeState(ctx); err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("a drained daemon's reading does not say draining")
	}
}

// TestReplicaDigest: a submission carrying labd.HeaderReplica gets the
// result's SHA-256 in X-Labd-Sha256 when it is a cache hit — served by
// the fast path or, on a traced daemon, by the scheduler — and never on
// a miss or an async answer. Without the header no hit is hashed.
func TestReplicaDigest(t *testing.T) {
	spec := []byte(`{"job":{"kind":"simulate","collector":"CMS","heap_bytes":2147483648,"duration_seconds":5,"seed":12}}`)
	async := []byte(`{"job":{"kind":"simulate","collector":"CMS","heap_bytes":2147483648,"duration_seconds":5,"seed":12},"async":true}`)
	for _, tc := range []struct {
		name string
		cfg  labd.Config
	}{
		{"fast path", labd.Config{Workers: 1}},
		{"scheduler", labd.Config{Workers: 1, Tracer: obs.NewTracer(obs.Config{Seed: 3})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, url := startDaemonURL(t, tc.cfg)
			submit := func(body []byte, replica bool) (*http.Response, []byte) {
				t.Helper()
				req, err := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set(labd.HeaderRouted, "1")
				if replica {
					req.Header.Set(labd.HeaderReplica, "1")
				}
				resp, err := http.DefaultClient.Do(req)
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
			for i, want := range []struct {
				body    []byte
				replica bool
				cache   string
				digest  bool
			}{
				{spec, true, "miss", false},
				{spec, false, "hit", false},
				{async, true, "hit", false},
				{spec, true, "hit", true},
			} {
				resp, body := submit(want.body, want.replica)
				if c := resp.Header.Get("X-Labd-Cache"); c != want.cache {
					t.Fatalf("request %d: cache %q, want %q", i, c, want.cache)
				}
				got := resp.Header.Get("X-Labd-Sha256")
				if !want.digest {
					if got != "" {
						t.Errorf("request %d: unexpected digest %q", i, got)
					}
					continue
				}
				if sum := sha256.Sum256(body); got != hex.EncodeToString(sum[:]) {
					t.Errorf("request %d: digest %q does not match the %d-byte body", i, got, len(body))
				}
			}
		})
	}
}
