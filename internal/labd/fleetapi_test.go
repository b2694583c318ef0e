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

// TestHealthzJSON: /healthz is structured — node identity, uptime,
// queue pressure and per-tier cache traffic, not just an "ok" string.
func TestHealthzJSON(t *testing.T) {
	c, _, _ := startDaemonURL(t, labd.Config{Workers: 2, QueueDepth: 8, NodeID: "solo-1"})
	ctx := context.Background()

	spec := labd.JobSpec{
		Kind:            labd.KindSimulate,
		Collector:       "CMS",
		HeapBytes:       2 << 30,
		DurationSeconds: 5,
		Seed:            11,
	}
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("resubmission disposition = %q, want hit", second.Cache)
	}
	if second.Node != "solo-1" {
		t.Errorf("X-Labd-Node = %q, want solo-1", second.Node)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.Node != "solo-1" {
		t.Errorf("node = %q, want solo-1", h.Node)
	}
	if h.UptimeSeconds <= 0 {
		t.Errorf("uptime = %g, want > 0", h.UptimeSeconds)
	}
	if h.QueueDepth != 0 || h.Running != 0 {
		t.Errorf("queue=%d running=%d after completion, want 0/0", h.QueueDepth, h.Running)
	}
	if h.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", h.Cache.Entries)
	}
	if h.Cache.MemoryHits != 1 {
		t.Errorf("memory hits = %d, want 1 (the resubmission)", h.Cache.MemoryHits)
	}
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

// TestNodeStateSnapshot: /v1/state is the mergeable fleet snapshot —
// counters, histogram bytes that decode, and the node's identity.
func TestNodeStateSnapshot(t *testing.T) {
	c, _, _ := startDaemonURL(t, labd.Config{Workers: 2, QueueDepth: 8, NodeID: "solo-2"})
	ctx := context.Background()

	spec := labd.JobSpec{
		Kind:            labd.KindSimulate,
		Collector:       "CMS",
		HeapBytes:       2 << 30,
		DurationSeconds: 5,
		Seed:            41,
	}
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(ctx, spec); err != nil {
		t.Fatal(err)
	}

	st, err := c.NodeState(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != "solo-2" {
		t.Errorf("node = %q, want solo-2", st.Node)
	}
	if got := st.Counters["labd.jobs.submitted"]; got != 2 {
		t.Errorf("submitted counter = %d, want 2", got)
	}
	if st.Workers != 2 {
		t.Errorf("workers = %d, want 2", st.Workers)
	}
	h, err := hdrhist.Decode(st.LatencyHist)
	if err != nil {
		t.Fatalf("latency histogram does not decode: %v", err)
	}
	if h.Count() != 2 {
		t.Errorf("latency histogram count = %d, want 2", h.Count())
	}
	if _, err := hdrhist.Decode(st.QueueHist); err != nil {
		t.Fatalf("queue histogram does not decode: %v", err)
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
