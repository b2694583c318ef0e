package hdrhist

import (
	"testing"

	"jvmgc/internal/xrand"
)

// BenchmarkHDRRecord measures the steady-state record path — the
// operation the client study performs once per simulated request. It
// is part of the ci.sh bench gate: ns/op is held within the benchreg
// ratio and allocs/op must stay exactly zero.
func BenchmarkHDRRecord(b *testing.B) {
	h := New(Config{})
	rng := xrand.New(42).SplitLabeled("hdrhist/bench")
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.LogNormal(-6.5, 0.8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&4095])
	}
}

// BenchmarkHDRQuantile measures a full percentile query (cumulative
// scan over the bucket array), the per-report cost of a histogram
// summary.
func BenchmarkHDRQuantile(b *testing.B) {
	h := New(Config{})
	rng := xrand.New(42).SplitLabeled("hdrhist/benchq")
	for i := 0; i < 100000; i++ {
		h.Record(rng.LogNormal(-6.5, 0.8))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(99)
	}
}
