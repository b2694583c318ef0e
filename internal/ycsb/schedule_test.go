package ycsb

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
)

// TestTraceSchedules holds the generator's two schedules to the same
// operations, bit for bit, and BandsByType to AnalyzeBands over each
// type's samples, across the core workloads, the paper's custom mix and
// an update-only mix, at horizons that end the trace before any
// operation, inside the first chunk, and on and just past a chunk
// boundary. The pipelined schedule's goroutine must be gone once
// TransactionTrace returns.
func TestTraceSchedules(t *testing.T) {
	srv := testServer(t, "CMS")
	// The client connects five minutes in, where the server serves in
	// its steady state: the first seconds' pauses shadow nearly every
	// operation, which would leave the normal band almost empty.
	base := TransactionConfig{OpsPerSec: 300, StartAfter: 300, Seed: 5}
	mixes := map[string]TransactionConfig{
		"custom":      {ReadFraction: 0.5, OpsPerSec: 300, StartAfter: 300, Seed: 5},
		"update-only": {ReadFraction: -1, OpsPerSec: 300, StartAfter: 300, Seed: 5},
	}
	for _, w := range []CoreWorkload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF} {
		cfg, err := w.Config(base)
		if err != nil {
			t.Fatal(err)
		}
		mixes[string(w)] = cfg
	}
	counts := []int{0, 1000, 5 * chunkOps, 5*chunkOps + 1}
	for name, cfg := range mixes {
		// The arrival instants of a reference trace long enough for
		// every count place each horizon between two arrivals.
		ref := srv
		ref.TotalDuration = simtime.Seconds(cfg.StartAfter + 120)
		arrivals := make([]float64, 0, 40000)
		for _, op := range TransactionTrace(ref, cfg).Ops {
			arrivals = append(arrivals, op.Completed-op.LatencyMS/1e3)
		}
		for _, n := range counts {
			server := srv
			if n == 0 {
				server.TotalDuration = simtime.Seconds((cfg.StartAfter + arrivals[0]) / 2)
			} else {
				server.TotalDuration = simtime.Seconds((arrivals[n-1] + arrivals[n]) / 2)
			}
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				inline := TransactionTrace(server, cfg)
				if len(inline.Ops) != n {
					t.Fatalf("%d operations, want %d", len(inline.Ops), n)
				}
				piped := cfg
				piped.Pipelined = true
				before := runtime.NumGoroutine()
				pipelined := TransactionTrace(server, piped)
				waitGoroutines(t, before)
				sameOps(t, inline.Ops, pipelined.Ops)
				sameBands(t, inline)
			})
		}
	}
}

// waitGoroutines fails t unless the goroutine count returns to want
// within a second: a goroutine that has finished its work may take a
// moment to leave the count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the pipelined trace, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// sameOps fails t unless both logs hold the same operations, bit for
// bit.
func sameOps(t *testing.T, a, b []Op) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("inline schedule made %d operations, pipelined %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Type != y.Type || x.Shadowed != y.Shadowed ||
			math.Float64bits(x.Completed) != math.Float64bits(y.Completed) ||
			math.Float64bits(x.LatencyMS) != math.Float64bits(y.LatencyMS) {
			t.Fatalf("operation %d: inline %+v, pipelined %+v", i, x, y)
		}
	}
}

// sameBands fails t unless BandsByType and Bands both equal
// AnalyzeBands over a copy of each type's samples.
func sameBands(t *testing.T, tr Trace) {
	t.Helper()
	var samples [2][]stats.LatencySample
	for _, op := range tr.Ops {
		samples[op.Type] = append(samples[op.Type], stats.LatencySample{Completed: op.Completed, LatencyMS: op.LatencyMS})
	}
	fused := tr.BandsByType(0.01)
	for _, typ := range []OpType{Read, Update} {
		want := fmt.Sprintf("%#v", stats.AnalyzeBands(samples[typ], tr.Pauses, 0.01))
		if got := fmt.Sprintf("%#v", fused[typ]); got != want {
			t.Errorf("%v: BandsByType gave\n%s\nAnalyzeBands over the samples\n%s", typ, got, want)
		}
		if got := fmt.Sprintf("%#v", tr.Bands(typ, 0.01)); got != want {
			t.Errorf("%v: Bands gave\n%s\nAnalyzeBands over the samples\n%s", typ, got, want)
		}
	}
}
