package core

import (
	"runtime"

	"jvmgc/internal/sweep"
)

// forEach runs fn(i) for i in [0, n) on internal/sweep's shared queue
// and returns the first error in index order.
// Each experiment in this laboratory is an independent simulation with
// its own seed, so fanning them out is deterministic: results land in
// caller-owned slices by index, and error selection ignores completion
// order — rendered output is byte-identical at any Parallelism.
func (l *Lab) forEach(n int, fn func(i int) error) error {
	return l.forEachCost(n, nil, fn)
}

// forEachCost is forEach with a per-task expected-cost estimate: tasks
// are handed out longest-expected-first (the LPT heuristic), so the
// sweep's straggler starts first instead of landing last on a busy
// worker. The estimate shapes only the schedule, never the results.
func (l *Lab) forEachCost(n int, cost func(i int) float64, fn func(i int) error) error {
	return sweep.Run(sweep.Options{Workers: l.Parallelism, Cost: cost}, n, fn)
}

// collectorCost estimates a collector's relative simulation cost for
// longest-expected-first scheduling. The concurrent collectors simulate
// more events per heap cycle (concurrent phases, remembered-set work)
// than the stop-the-world ones; the exact ratios do not matter, only
// that the expensive runs are handed out first.
func collectorCost(gc string) float64 {
	switch gc {
	case "G1":
		return 1.6
	case "CMS":
		return 1.4
	default:
		return 1.0
	}
}

// workers returns the Lab's effective parallelism: Parallelism, or
// GOMAXPROCS when it is 0.
func (l *Lab) workers() int {
	if l.Parallelism > 0 {
		return l.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}
