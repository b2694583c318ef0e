package labd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

func campaignSpecs() []labd.JobSpec {
	return []labd.JobSpec{
		{Kind: labd.KindSimulate, Collector: "G1", HeapBytes: 4 << 30, DurationSeconds: 10, Seed: 11},
		{Kind: labd.KindSimulate, Collector: "CMS", HeapBytes: 4 << 30, DurationSeconds: 10, Seed: 12},
		{Kind: labd.KindSimulate, Collector: "ParallelOld", HeapBytes: 4 << 30, DurationSeconds: 10, Seed: 13},
		{Kind: labd.KindAdvise, HeapBytes: 8 << 30, AllocBytesPerSec: 400e6, DurationSeconds: 20, MaxPauseMS: 400, Seed: 14},
	}
}

// TestChaosCampaignConvergence: with a fixed seed injecting one job
// panic, one cache corruption and three flaky HTTP responses, a
// multi-job campaign that resubmits each failed request converges to
// results byte-identical to a fault-free daemon, the
// daemon never exits (the injected panic is isolated in-process), and
// /metrics accounts for every injected fault.
func TestChaosCampaignConvergence(t *testing.T) {
	specs := campaignSpecs()

	// Ground truth from a fault-free daemon.
	calm, _ := startDaemon(t, labd.Config{Workers: 2, QueueDepth: 16, Parallelism: 1})
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		sub, err := calm.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("fault-free submit %d: %v", i, err)
		}
		want[i] = sub.Bytes
	}

	// With injection off, the resilience counters exist and read zero.
	calmMetrics, err := calm.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"jvmgc_labd_jobs_panicked_total",
		"jvmgc_labd_cache_corruptions_detected_total",
		"jvmgc_labd_http_injected_faults_total",
	} {
		if got := metricValue(t, calmMetrics, name); got != 0 {
			t.Errorf("fault-free %s = %g, want 0", name, got)
		}
	}

	// The chaos daemon: every fault class from the issue, on cadence
	// rules so the counts are exact regardless of goroutine interleaving.
	// CacheEntries=1 forces memory evictions, so resubmissions must go
	// through the disk tier where the corruption site lives.
	const seed = 42
	chaos, err := faultinject.Parse(seed,
		"labd/job.panic:count=1;labd/cache.corrupt:count=1;labd/http.flaky:every=2,count=3")
	if err != nil {
		t.Fatal(err)
	}
	c, srv := startDaemon(t, labd.Config{
		Workers: 2, QueueDepth: 16, Parallelism: 1,
		CacheEntries: 1, CacheDir: t.TempDir(), Chaos: chaos,
	})
	ctx := context.Background()

	// Two passes: the first populates (through panics and 503s), the
	// second re-reads entries the 1-slot memory tier already evicted,
	// exercising disk verification and the corruption path. Resubmitting
	// a spec is safe (its key is its content address), so each submit
	// retries through the module's one retry loop, counting its failed
	// attempts.
	failed := 0
	for pass := 0; pass < 2; pass++ {
		for i, spec := range specs {
			var sub *client.Submission
			err := gossip.Retry(ctx, 6, 2*time.Millisecond, 20*time.Millisecond, func() error {
				var err error
				if sub, err = c.Submit(ctx, spec); err != nil {
					failed++
				}
				return err
			})
			if err != nil {
				t.Fatalf("pass %d submit %d: %v (%d failed attempts)", pass, i, err, failed)
			}
			if !bytes.Equal(sub.Bytes, want[i]) {
				t.Errorf("pass %d spec %d: bytes diverge from fault-free run (%d vs %d bytes)",
					pass, i, len(sub.Bytes), len(want[i]))
			}
		}
	}

	// The campaign had to heal: at least the three flaky 503s and the
	// panicked job's 500 forced retries.
	if failed < 4 {
		t.Errorf("%d failed attempts, want >= 4", failed)
	}

	// Every fault the spec promises was injected exactly on budget...
	if got := chaos.Fired(labd.FaultJobPanic); got != 1 {
		t.Errorf("injected panics = %d, want 1", got)
	}
	if got := chaos.Fired(labd.FaultCacheCorrupt); got != 1 {
		t.Errorf("injected corruptions = %d, want 1", got)
	}
	if got := chaos.Fired(labd.FaultHTTPFlaky); got != 3 {
		t.Errorf("injected flaky responses = %d, want 3", got)
	}

	// ...and the daemon observed and survived all of it.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_jobs_panicked_total"); got != 1 {
		t.Errorf("jobs_panicked = %g, want 1", got)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_cache_corruptions_detected_total"); got != 1 {
		t.Errorf("cache_corruptions_detected = %g, want 1", got)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_http_injected_faults_total"); got != 3 {
		t.Errorf("http_injected_faults = %g, want 3", got)
	}
	if got := metricValue(t, metrics, "jvmgc_labd_faults_injected_total"); got != 5 {
		t.Errorf("faults_injected (all sites) = %g, want 5", got)
	}

	// Still alive and healthy: /healthz is exempt from injection and the
	// panic was contained in a job, not the process.
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz after chaos: %v", err)
	}
	if srv.Running() != 0 {
		t.Errorf("jobs still running after campaign: %d", srv.Running())
	}
}

// TestHTTPFlakySparesObservability: a daemon whose every /v1/ request
// is flaky still answers /v1/state — the fleet's scrape — as it answers
// /healthz and /metrics, so a fleet rollup counts the node instead of
// listing it unreachable; job submissions still fail.
func TestHTTPFlakySparesObservability(t *testing.T) {
	chaos, err := faultinject.Parse(1, "labd/http.flaky:p=1")
	if err != nil {
		t.Fatal(err)
	}
	_, _, url := startDaemonURL(t, labd.Config{Workers: 1, NodeID: "flaky", Chaos: chaos})
	for _, probe := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/state", http.StatusOK},
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/metrics", http.StatusOK},
		{http.MethodPost, "/v1/jobs", http.StatusServiceUnavailable},
		{http.MethodGet, "/v1/jobs", http.StatusServiceUnavailable},
	} {
		req, err := http.NewRequest(probe.method, url+probe.path,
			strings.NewReader(`{"kind":"simulate","collector":"G1","duration_seconds":5,"seed":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var st labd.NodeState
		decodeErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != probe.want {
			t.Errorf("%s %s = %d, want %d", probe.method, probe.path, resp.StatusCode, probe.want)
		}
		if probe.path == "/v1/state" && (decodeErr != nil || st.Node != "flaky") {
			t.Errorf("/v1/state under chaos: node %q, %v", st.Node, decodeErr)
		}
	}
	if got := chaos.Fired(labd.FaultHTTPFlaky); got != 2 {
		t.Errorf("flaky responses = %d, want 2 (the two job requests)", got)
	}
}

// TestWarmRestartAndCorruptionRecovery: a daemon restart over a
// populated -cache-dir serves prior results as cache hits; a
// deliberately corrupted entry is detected, recomputed and rewritten so
// the NEXT restart hits cleanly again.
func TestWarmRestartAndCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := labd.JobSpec{
		Kind: labd.KindSimulate, Collector: "G1",
		HeapBytes: 4 << 30, DurationSeconds: 10, Seed: 7,
	}
	cfg := labd.Config{Workers: 1, QueueDepth: 4, CacheDir: dir}
	ctx := context.Background()

	// Daemon 1: cold run populates the disk tier.
	c1, srv1 := startDaemon(t, cfg)
	first, err := c1.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cache != "miss" {
		t.Fatalf("cold submit disposition = %q, want miss", first.Cache)
	}
	if srv1.DiskCacheEntries() != 1 {
		t.Fatalf("disk entries after cold run = %d, want 1", srv1.DiskCacheEntries())
	}

	// Daemon 2, same directory: the restart is warm.
	c2, _ := startDaemon(t, cfg)
	warm, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Cache != "hit" {
		t.Errorf("restart submit disposition = %q, want hit", warm.Cache)
	}
	if !bytes.Equal(warm.Bytes, first.Bytes) {
		t.Error("warm-restart bytes differ from the original run")
	}

	// Corrupt the entry on disk, as a crash mid-write or bit rot would.
	entries, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache files = %v (err %v), want exactly 1", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Daemon 3 detects the corruption, recomputes, and rewrites.
	c3, srv3 := startDaemon(t, cfg)
	healed, err := c3.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if healed.Cache != "miss" {
		t.Errorf("corrupted-entry submit disposition = %q, want miss (recomputed)", healed.Cache)
	}
	if !bytes.Equal(healed.Bytes, first.Bytes) {
		t.Error("recomputed bytes differ from the original run")
	}
	if got := srv3.Metrics().Counter("labd.cache.corruptions.detected"); got != 1 {
		t.Errorf("corruptions detected = %d, want 1", got)
	}
	if srv3.DiskCacheEntries() != 1 {
		t.Errorf("disk entries after recovery = %d, want 1 (rewritten)", srv3.DiskCacheEntries())
	}

	// Daemon 4 proves the rewrite: clean warm hit again.
	c4, _ := startDaemon(t, cfg)
	again, err := c4.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache != "hit" {
		t.Errorf("post-recovery restart disposition = %q, want hit", again.Cache)
	}
	if !bytes.Equal(again.Bytes, first.Bytes) {
		t.Error("post-recovery bytes differ from the original run")
	}
}

// TestDrainRejectsSubmissions: once draining, the daemon answers new
// submissions with 503 plus a Retry-After hint instead of hanging or
// accepting work it will never run.
func TestDrainRejectsSubmissions(t *testing.T) {
	srv, err := labd.New(labd.Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	body := strings.NewReader(`{"kind":"simulate","collector":"G1","duration_seconds":10,"seed":1}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("post-drain 503 missing Retry-After header")
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil || envelope.Error == "" {
		t.Errorf("post-drain 503 body not an error envelope: %v %+v", err, envelope)
	}

	// Drain also flips readiness so balancers stop routing.
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", hz.StatusCode)
	}
}
