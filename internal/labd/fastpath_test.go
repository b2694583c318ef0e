package labd

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"jvmgc/internal/obs"
)

func fastpathServer(t *testing.T) *Server {
	t.Helper()
	// The SLO monitor is part of the production service config, and its
	// Observe sits on the fast path — keep it enabled here so the
	// zero-alloc assertion covers the deployed shape, not a stripped one.
	s, err := New(Config{Workers: 1, QueueDepth: 1 << 10, DefaultTimeout: time.Minute,
		SLO: obs.NewSLO(obs.SLOConfig{})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

// specMatrix is the byte-identity sweep: ordinary specs the fast
// encoder must reproduce exactly, plus adversarial ones it must decline
// so the encoding/json fallback keeps the key stable.
func specMatrix() []JobSpec {
	return []JobSpec{
		{},
		{Kind: KindSimulate},
		{Kind: KindSimulate, Collector: "ParallelOld", HeapBytes: 16 << 30,
			Threads: 48, AllocBytesPerSec: 200e6, DurationSeconds: 60, Seed: 42},
		{Kind: KindSimulate, Collector: "CMS", HeapBytes: 2 << 30, YoungBytes: 512 << 20,
			Threads: 8, AllocBytesPerSec: 150e6, DurationSeconds: 5, Seed: 1},
		{Kind: KindBenchmark, Benchmark: "avrora", Iterations: 7, DisableTLAB: true},
		{Kind: KindClientServer, Workload: "A", MaxPauseMS: 123.456, Stress: true},
		{Kind: KindAdvise, HeapBytes: 8 << 30, AllocBytesPerSec: 400e6,
			MaxPauseMS: 500, MaxPausedPct: 2.5},
		{Kind: KindCluster, Nodes: 3, ReplicationFactor: 3, DurationSeconds: 600},
		{Kind: KindRanking, SystemGC: true, NoSystemGC: false},
		// Float edge cases: exponent form both sides, negatives, tiny
		// and huge magnitudes, values whose shortest form carries many
		// digits.
		{Kind: KindSimulate, AllocBytesPerSec: 1e-7},
		{Kind: KindSimulate, AllocBytesPerSec: 1e21},
		{Kind: KindSimulate, AllocBytesPerSec: 1.25e22, DurationSeconds: 3.0000000000000004},
		{Kind: KindSimulate, MaxPauseMS: -12.5, MaxPausedPct: 0.1},
		{Kind: KindSimulate, AllocBytesPerSec: 123456789.123456},
		{Kind: KindSimulate, HeapBytes: -1, Threads: -3},
		{Kind: KindSimulate, Seed: math.MaxUint64},
		// Strings that force the fallback: HTML-escapable characters,
		// quotes, backslashes, control bytes, non-ASCII.
		{Kind: "simulate", Collector: "Serial<Old>"},
		{Kind: "simulate", Collector: "a&b"},
		{Kind: "simulate", Benchmark: `quo"te`},
		{Kind: "simulate", Benchmark: `back\slash`},
		{Kind: "simulate", Workload: "tab\there"},
		{Kind: "simulate", Collector: "ZGC-généralisé"},
	}
}

// TestAppendSpecJSONByteIdentity pins the fast encoder to
// encoding/json: for every spec it either reproduces json.Marshal
// byte-for-byte or declines, and JobSpec.key() returns the same content
// address either way.
func TestAppendSpecJSONByteIdentity(t *testing.T) {
	for i, spec := range specMatrix() {
		want, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		got, ok := appendSpecJSON(nil, spec)
		if ok && !bytes.Equal(got, want) {
			t.Errorf("spec %d: fast encoding diverges\n got %s\nwant %s", i, got, want)
		}
		// The key must be identical whether or not the fast encoder
		// handled the spec (fallback inside key()).
		var hexBuf [64]byte
		if fastSpecKey(spec, &hexBuf) != ok {
			t.Errorf("spec %d: fastSpecKey ok mismatch with appendSpecJSON", i)
		}
		key, err := spec.key()
		if err != nil {
			t.Fatalf("spec %d: key: %v", i, err)
		}
		if ok && key != string(hexBuf[:]) {
			t.Errorf("spec %d: key %q != fast key %q", i, key, hexBuf[:])
		}
	}
}

// TestAppendSpecJSONDeclines asserts the guard actually fires for specs
// whose encoding the fast path cannot reproduce.
func TestAppendSpecJSONDeclines(t *testing.T) {
	decline := []JobSpec{
		{Kind: "simulate", Collector: "Serial<Old>"},
		{Kind: "simulate", Collector: "a&b"},
		{Kind: "simulate", Benchmark: `quo"te`},
		{Kind: "simulate", Workload: "é"},
		{Kind: "simulate", AllocBytesPerSec: math.NaN()},
		{Kind: "simulate", DurationSeconds: math.Inf(1)},
	}
	for i, spec := range decline {
		if _, ok := appendSpecJSON(nil, spec); ok {
			t.Errorf("spec %d: expected fast encoder to decline", i)
		}
	}
}

// TestAppendJSONFloatMatrix pins the float encoder to encoding/json
// across the format boundary cases.
func TestAppendJSONFloatMatrix(t *testing.T) {
	vals := []float64{
		0.5, -0.5, 1, -1, 1e-6, 9.999999e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21,
		1.25e22, 5e-324, math.MaxFloat64, 123.456, 200e6, 3.0000000000000004,
		1e-9, 2.5e-8,
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("float %v: got %s want %s", v, got, want)
		}
	}
}

// TestSpecKeyInto pins the exported router-facing form to SpecKey.
func TestSpecKeyInto(t *testing.T) {
	for i, spec := range specMatrix() {
		if spec.Kind == "" {
			continue // invalid; SpecKey rejects it too
		}
		want, werr := SpecKey(spec)
		var out [64]byte
		gerr := SpecKeyInto(spec, &out)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("spec %d: error mismatch: %v vs %v", i, werr, gerr)
		}
		if werr == nil && want != string(out[:]) {
			t.Errorf("spec %d: SpecKeyInto %q != SpecKey %q", i, out[:], want)
		}
	}
}

// TestTryCacheHitZeroAlloc is the acceptance gate in test form: once
// the cache is warm, resolving a submission through the fast path
// allocates nothing.
func TestTryCacheHitZeroAlloc(t *testing.T) {
	s := fastpathServer(t)
	spec := JobSpec{Kind: KindSimulate, Collector: "ParallelOld", HeapBytes: 2 << 30,
		Threads: 8, AllocBytesPerSec: 150e6, DurationSeconds: 5, Seed: 1}
	j, err := s.Submit(SubmitRequest{Job: spec})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, err := j.Result(); err != nil {
		t.Fatal(err)
	}
	// Prime every lazily-allocated structure the hit path touches: the
	// latency histogram's segments, the SLO window buckets, and the
	// counter-handle slot resolution all allocate on first touch only.
	if _, _, ok := s.TryCacheHit(spec); !ok {
		t.Fatal("expected warm-up fast-path hit")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := s.TryCacheHit(spec); !ok {
			t.Fatal("expected fast-path hit")
		}
	})
	if allocs != 0 {
		t.Fatalf("TryCacheHit allocated %.1f allocs/op; want 0", allocs)
	}
}

// TestTryCacheHitSemantics covers the decline conditions and the
// byte-identity of served hits.
func TestTryCacheHitSemantics(t *testing.T) {
	s := fastpathServer(t)
	spec := JobSpec{Kind: KindSimulate, Collector: "ParallelOld", HeapBytes: 2 << 30,
		Threads: 8, AllocBytesPerSec: 150e6, DurationSeconds: 5, Seed: 7}
	if _, _, ok := s.TryCacheHit(spec); ok {
		t.Fatal("hit on a cold cache")
	}
	j, err := s.Submit(SubmitRequest{Job: spec})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	want, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	got, hexKey, ok := s.TryCacheHit(spec)
	if !ok {
		t.Fatal("expected hit after cold run")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fast-path bytes differ from scheduled result")
	}
	if string(hexKey[:]) != j.Key {
		t.Fatalf("fast-path key %s != job key %s", hexKey[:], j.Key)
	}
	if b, ok := s.TryCacheHitKey(j.Key); !ok || !bytes.Equal(b, want) {
		t.Fatal("keyed fast path did not serve the stored bytes")
	}
	if _, _, ok := s.TryCacheHit(JobSpec{Kind: "nope"}); ok {
		t.Fatal("hit for an invalid spec")
	}
}
