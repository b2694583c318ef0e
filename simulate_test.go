package jvmgc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"jvmgc"
)

// TestSimulateLogTextPinned pins the bytes of SimulationResult.LogText
// across every collector on an old-generation-pressure heap (4 GiB) and a
// young-GC dominated one (16 GiB). Together the twelve logs cover all
// seven event kinds and the B, MB and GB units, so any change to how a
// GC-log line is rendered shows here as a different digest. A second
// digest pins each run's SafepointSummary, whose mean and percentiles
// the time-to-safepoint distribution computes.
func TestSimulateLogTextPinned(t *testing.T) {
	const (
		wantLines      = 905
		wantSHA256     = "b27fa193f02a1c7fb8760d63f6d1be6fa01203330790ad991f7bded7b8f9e075"
		wantSafepoints = "1d0725b29bd64ef3cf69f333a45d733c282ebd02d429783d534695fe2e08baad"
	)
	h := sha256.New()
	sp := sha256.New()
	lines := 0
	for _, col := range jvmgc.Collectors() {
		for _, heap := range []int64{4 << 30, 16 << 30} {
			res, err := jvmgc.Simulate(jvmgc.SimulationConfig{
				Collector: col,
				HeapBytes: heap,
				Seed:      42,
			}, 10*time.Minute)
			if err != nil {
				t.Fatalf("%s/%d: %v", col, heap>>30, err)
			}
			h.Write([]byte(res.LogText))
			lines += strings.Count(res.LogText, "\n")
			fmt.Fprintf(sp, "%#v", res.Safepoints)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if lines != wantLines || got != wantSHA256 {
		t.Errorf("LogText: %d lines, SHA-256 %s; want %d lines, %s",
			lines, got, wantLines, wantSHA256)
	}
	if got := hex.EncodeToString(sp.Sum(nil)); got != wantSafepoints {
		t.Errorf("Safepoints: SHA-256 %s; want %s", got, wantSafepoints)
	}
}

// BenchmarkSimulate times one Simulate call end to end: the JVM run, the
// summary and the LogText rendering, which the kernel-only
// BenchmarkSimulatedHour* benchmarks in internal/jvm leave out.
func BenchmarkSimulate(b *testing.B) {
	cfg := jvmgc.SimulationConfig{Collector: "ParallelOld", HeapBytes: 4 << 30, Seed: 42}
	var res *jvmgc.SimulationResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = jvmgc.Simulate(cfg, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Pauses)), "pauses")
	b.ReportMetric(float64(len(res.LogText))/1e3, "log-KB")
}
