package labd

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/telemetry"
)

// TestJobPanicIsolation: a panicking job fails alone — with the
// recovered value and a captured stack in its error and a counter tick —
// while the worker pool keeps executing subsequent jobs.
func TestJobPanicIsolation(t *testing.T) {
	var runs atomic.Int64
	s := stubServer(t, Config{Workers: 1, QueueDepth: 4},
		func(_ context.Context, spec JobSpec, _ int) (*JobResult, error) {
			if runs.Add(1) == 1 {
				panic("simulated collector bug")
			}
			return &JobResult{Kind: spec.Kind, Spec: spec, Text: "ok"}, nil
		})

	bad, err := s.Submit(SubmitRequest{Job: simSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	if _, err := bad.Result(); !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("result err = %v, want ErrJobPanicked", err)
	} else {
		if !strings.Contains(err.Error(), "simulated collector bug") {
			t.Errorf("panic value missing from error: %v", err)
		}
		if !strings.Contains(err.Error(), "goroutine") {
			t.Errorf("stack trace missing from error: %v", err)
		}
	}
	if got := s.Metrics().Counter("labd.jobs.panicked"); got != 1 {
		t.Errorf("jobs.panicked = %d, want 1", got)
	}

	// The worker survived: the next job (same key — the failed flight
	// cached nothing) runs cleanly.
	good, err := s.Submit(SubmitRequest{Job: simSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-good.Done()
	if _, err := good.Result(); err != nil {
		t.Fatalf("job after panic: %v", err)
	}
}

// TestInjectedPanicCounted: the chaos injector's panic site flows
// through the same isolation path as a real bug.
func TestInjectedPanicCounted(t *testing.T) {
	chaos := faultinject.New(1)
	chaos.Set(FaultJobPanic, faultinject.Rule{Count: 1})
	s := stubServer(t, Config{Workers: 1, QueueDepth: 4, Chaos: chaos},
		func(_ context.Context, spec JobSpec, _ int) (*JobResult, error) {
			return &JobResult{Kind: spec.Kind, Spec: spec, Text: "ok"}, nil
		})

	j, err := s.Submit(SubmitRequest{Job: simSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, err := j.Result(); !errors.Is(err, ErrJobPanicked) {
		t.Fatalf("result err = %v, want ErrJobPanicked", err)
	}
	if got := s.Metrics().Counter("labd.jobs.panicked"); got != 1 {
		t.Errorf("jobs.panicked = %d, want 1", got)
	}
	if got := chaos.Fired(FaultJobPanic); got != 1 {
		t.Errorf("injector fired %d panics, want 1", got)
	}
}

// TestDeadlinePropagation: a submit context deadline tighter than the
// server default caps the job's timeout end to end.
func TestDeadlinePropagation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := stubServer(t, Config{Workers: 1, QueueDepth: 4, DefaultTimeout: time.Hour},
		func(ctx context.Context, spec JobSpec, _ int) (*JobResult, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &JobResult{Kind: spec.Kind, Spec: spec}, nil
		})

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	j, err := s.SubmitContext(ctx, SubmitRequest{Job: simSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("job ignored the propagated deadline")
	}
	if _, err := j.Result(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("result err = %v, want deadline exceeded", err)
	}
}

// TestExpiredDeadlineNeverSimulates: a job dequeued after its deadline
// must not start running a simulation (runSpec's entry check).
func TestExpiredDeadlineNeverSimulates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runSpec(ctx, JobSpec{Kind: KindSimulate}, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("runSpec on dead context = %v, want context.Canceled", err)
	}
}

// --- disk cache ---

func testDiskCache(t *testing.T, chaos *faultinject.Injector) (*diskCache, *telemetry.Metrics) {
	t.Helper()
	rec := telemetry.NewMetrics()
	d, err := newDiskCache(t.TempDir(), rec, chaos)
	if err != nil {
		t.Fatal(err)
	}
	return d, rec
}

// TestDiskCacheRoundTrip: write-then-read returns the exact payload and
// leaves no temp files behind.
func TestDiskCacheRoundTrip(t *testing.T) {
	d, rec := testDiskCache(t, nil)
	payload := []byte(`{"kind":"simulate","text":"hello"}` + "\n")
	if err := d.write("k1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := d.read("k1")
	if !ok || string(got) != string(payload) {
		t.Fatalf("read = %q, %v", got, ok)
	}
	if d.entries() != 1 {
		t.Errorf("entries = %d, want 1", d.entries())
	}
	names, _ := os.ReadDir(d.dir)
	for _, e := range names {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Errorf("temp file %s left behind", e.Name())
		}
	}
	if _, ok := d.read("absent"); ok {
		t.Error("read of absent key reported a hit")
	}
	if got := rec.Counter("labd.cache.corruptions.detected"); got != 0 {
		t.Errorf("clean reads counted %d corruptions", got)
	}
}

// TestDiskCacheDetectsCorruption: flipped bytes, truncation, and garbage
// headers are all caught by verification, counted, and the entry removed
// so the next read is a clean miss.
func TestDiskCacheDetectsCorruption(t *testing.T) {
	payload := []byte(`{"kind":"simulate","text":"precious result bytes"}` + "\n")
	cases := []struct {
		name   string
		mangle func(path string) error
	}{
		{"bit flip", func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-2] ^= 0xff
			return os.WriteFile(path, raw, 0o644)
		}},
		{"truncation", func(path string) error {
			return os.Truncate(path, 30)
		}},
		{"empty file", func(path string) error {
			return os.Truncate(path, 0)
		}},
		{"garbage header", func(path string) error {
			return os.WriteFile(path, []byte("not-a-cache-entry\njunk"), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, rec := testDiskCache(t, nil)
			if err := d.write("k", payload); err != nil {
				t.Fatal(err)
			}
			if err := tc.mangle(d.path("k")); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.read("k"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if got := rec.Counter("labd.cache.corruptions.detected"); got != 1 {
				t.Errorf("corruptions counter = %d, want 1", got)
			}
			if _, err := os.Stat(d.path("k")); !os.IsNotExist(err) {
				t.Error("corrupt entry not removed")
			}
			// The slot is reusable: rewrite and read back.
			if err := d.write("k", payload); err != nil {
				t.Fatal(err)
			}
			if got, ok := d.read("k"); !ok || string(got) != string(payload) {
				t.Fatalf("rewrite after corruption: %q, %v", got, ok)
			}
		})
	}
}

// TestDiskCacheChaosCorruption: the FaultCacheCorrupt site models media
// corruption between write and read; verification must catch it.
func TestDiskCacheChaosCorruption(t *testing.T) {
	chaos := faultinject.New(3)
	chaos.Set(FaultCacheCorrupt, faultinject.Rule{Count: 1})
	d, rec := testDiskCache(t, chaos)
	payload := []byte(`{"kind":"simulate","text":"x"}` + "\n")
	if err := d.write("k", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.read("k"); ok {
		t.Fatal("chaos-corrupted read served as a hit")
	}
	if got := rec.Counter("labd.cache.corruptions.detected"); got != 1 {
		t.Errorf("corruptions counter = %d, want 1", got)
	}
	// Injection budget spent: a rewritten entry reads clean.
	if err := d.write("k", payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.read("k"); !ok || string(got) != string(payload) {
		t.Fatalf("read after chaos budget spent: %q, %v", got, ok)
	}
}

// TestResultCacheDiskPromotion: a fresh memory cache backed by a
// populated disk tier serves reads as hits (no flight) and promotes into
// memory; LRU eviction does not lose the durable copy.
func TestResultCacheDiskPromotion(t *testing.T) {
	d, _ := testDiskCache(t, nil)
	warm := newResultCache(1, d)
	a, b := []byte("result-a"), []byte("result-b")

	put := func(c *resultCache, key string, bytes []byte) {
		t.Helper()
		_, _, fl, leader := c.beginTier(key)
		if !leader {
			t.Fatalf("begin(%s): want leader", key)
		}
		c.complete(key, fl, bytes, nil)
	}
	put(warm, "a", a)
	put(warm, "b", b) // evicts "a" from the 1-entry memory tier

	if warm.len() != 1 {
		t.Fatalf("memory len = %d, want 1", warm.len())
	}
	// "a" was evicted from memory but survives on disk: a re-begin is a
	// hit, not a new flight.
	if cached, _, _, leader := warm.beginTier("a"); leader || string(cached) != "result-a" {
		t.Fatalf("begin(a) after eviction = %q leader=%v, want disk hit", cached, leader)
	}

	// A cold cache over the same directory (daemon restart) hits too.
	cold := newResultCache(8, d)
	if cached, _, _, leader := cold.beginTier("b"); leader || string(cached) != "result-b" {
		t.Fatalf("restart begin(b) = %q leader=%v, want disk hit", cached, leader)
	}
}
