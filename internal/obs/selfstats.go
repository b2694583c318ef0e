package obs

import (
	"runtime/metrics"

	"jvmgc/internal/telemetry"
)

// Self-observability: the lab spends its life measuring a simulated
// JVM's garbage collector, while running on a garbage-collected runtime
// itself. RuntimeSample closes that loop — the Go process's own GC
// pauses, heap and scheduler state, read from runtime/metrics and served
// in the daemon's reading and on the same /metrics page as the
// simulation's counters, so the observer's pauses are visible next to
// the subject's.

// RuntimeSample is one reading of the Go runtime's own vitals. A
// daemon's /v1/state carries one as "runtime".
type RuntimeSample struct {
	// HeapObjectsBytes is live heap memory occupied by objects.
	HeapObjectsBytes float64 `json:"heap_objects_bytes"`
	// HeapGoalBytes is the GC's current heap-size goal.
	HeapGoalBytes float64 `json:"heap_goal_bytes"`
	// Goroutines is the live goroutine count.
	Goroutines float64 `json:"goroutines"`
	// GCCycles counts completed GC cycles.
	GCCycles float64 `json:"gc_cycles"`
	// PauseP50/P99/Max summarize the runtime's stop-the-world pause
	// distribution (seconds) since process start.
	PauseP50 float64 `json:"pause_p50_seconds"`
	PauseP99 float64 `json:"pause_p99_seconds"`
	PauseMax float64 `json:"pause_max_seconds"`
	// PauseCount is the number of recorded stop-the-world pauses.
	PauseCount float64 `json:"pause_count"`
}

// runtimeMetricNames are the runtime/metrics keys the sampler reads.
// The pause histogram has two historical names; both are tried.
var runtimeMetricNames = []string{
	"/memory/classes/heap/objects:bytes",
	"/gc/heap/goal:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/gc/pauses:seconds",
}

// ReadRuntimeSample reads the runtime's vitals. Metrics a runtime
// version does not export are left zero rather than failing, so the
// sampler works across toolchains.
func ReadRuntimeSample() RuntimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)

	var out RuntimeSample
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v := float64(s.Value.Uint64())
			switch s.Name {
			case "/memory/classes/heap/objects:bytes":
				out.HeapObjectsBytes = v
			case "/gc/heap/goal:bytes":
				out.HeapGoalBytes = v
			case "/sched/goroutines:goroutines":
				out.Goroutines = v
			case "/gc/cycles/total:gc-cycles":
				out.GCCycles = v
			}
		case metrics.KindFloat64Histogram:
			// Either pause-histogram name; the first valid one wins.
			if out.PauseCount > 0 {
				continue
			}
			h := s.Value.Float64Histogram()
			out.PauseCount, out.PauseP50, out.PauseP99, out.PauseMax = pauseQuantiles(h)
		}
	}
	return out
}

// pauseQuantiles summarizes a runtime/metrics histogram: total count,
// p50, p99 and the highest non-empty bucket's upper edge.
func pauseQuantiles(h *metrics.Float64Histogram) (count, p50, p99, max float64) {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, 0, 0, 0
	}
	quantile := func(q float64) float64 {
		target := uint64(q * float64(total))
		var cum uint64
		for i, c := range h.Counts {
			cum += c
			if cum > target {
				// Bucket i spans Buckets[i]..Buckets[i+1].
				return edge(h, i+1)
			}
		}
		return edge(h, len(h.Counts))
	}
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			max = edge(h, i+1)
			break
		}
	}
	return float64(total), quantile(0.50), quantile(0.99), max
}

// edge returns the finite upper edge of bucket i-1, falling back to the
// highest finite boundary for the +Inf tail.
func edge(h *metrics.Float64Histogram, i int) float64 {
	if i >= len(h.Buckets) {
		i = len(h.Buckets) - 1
	}
	v := h.Buckets[i]
	for i > 0 && (v != v || v > 1e18) { // NaN or +Inf guard
		i--
		v = h.Buckets[i]
	}
	return v
}

// AddTo renders the sample as jvmgc_labd_go_* gauges on a snapshot.
func (r RuntimeSample) AddTo(snap *telemetry.PromSnapshot) {
	snap.Gauge("labd.go.heap.objects.bytes",
		"Live heap bytes of the daemon's own Go runtime (the observer observing itself).",
		r.HeapObjectsBytes)
	snap.Gauge("labd.go.heap.goal.bytes",
		"The Go GC's current heap-size goal for the daemon process.",
		r.HeapGoalBytes)
	snap.Gauge("labd.go.goroutines", "Live goroutines in the daemon.", r.Goroutines)
	snap.Gauge("labd.go.gc.cycles", "Completed Go GC cycles in the daemon.", r.GCCycles)
	snap.Gauge("labd.go.gc.pauses", "Stop-the-world pauses of the daemon's own runtime.", r.PauseCount)
	snap.Gauge("labd.go.gc.pause.p50.seconds",
		"Median stop-the-world pause of the daemon's own runtime.", r.PauseP50)
	snap.Gauge("labd.go.gc.pause.p99.seconds",
		"p99 stop-the-world pause of the daemon's own runtime.", r.PauseP99)
	snap.Gauge("labd.go.gc.pause.max.seconds",
		"Worst stop-the-world pause of the daemon's own runtime.", r.PauseMax)
}
