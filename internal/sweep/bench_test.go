package sweep

import (
	"testing"
	"time"
)

// benchUnit keeps the bench gate's wall-clock cost modest while
// staying far above scheduler and timer noise.
const benchUnit = 5 * time.Millisecond

// BenchmarkSweepImbalance measures Run's longest-first makespan on
// the skewed 6-collector profile with 4 workers. Paired
// with BenchmarkFIFOImbalance in BENCH_baseline.json, the ci.sh bench
// gate holds the ≥1.3x scheduling win: if the sweep's ns/op drifts up
// toward the FIFO number, the gate trips.
func BenchmarkSweepImbalance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runImbalanced(b, benchUnit, sweepRun(4))
	}
}

// BenchmarkFIFOImbalance is the replaced FIFO pool on the identical
// profile — the baseline the sweep's speedup is measured against.
func BenchmarkFIFOImbalance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runImbalanced(b, benchUnit, fifoRun(4))
	}
}
