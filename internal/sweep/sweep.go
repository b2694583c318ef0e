// Package sweep runs the laboratory's experiment fan-outs from one
// shared queue.
//
// The fixed FIFO pools it replaces had a straggler problem: the
// collector sweep submits cheap experiments first (Serial, ParNew, …)
// and the expensive concurrent collectors (CMS, G1) last, so near the
// end of a sweep one worker grinds through a long simulation while the
// rest sit idle. Run fixes that by handing tasks out longest-expected-
// first when the caller supplies a per-task cost estimate: each task
// goes to the first worker that comes free, which is the classic LPT
// bound on makespan.
//
// Determinism is preserved where it matters — in the OUTPUT, not the
// schedule. Every task writes its result into caller-owned slices at
// its own index and errors are selected by lowest index, so rendered
// experiment bytes are identical at any worker count (1, 4, 16, …)
// even though the execution interleaving differs run to run.
package sweep

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// Options configures one static sweep.
type Options struct {
	// Workers bounds the concurrency; values <= 0 select GOMAXPROCS.
	Workers int
	// Cost, when non-nil, estimates task i's expected duration in
	// arbitrary units. Tasks are handed out longest-expected-first; ties
	// keep ascending index order. Nil hands tasks out in index order.
	Cost func(i int) float64
}

// Run executes fn(i) for every i in [0, n) and returns the first error
// in index order (not completion order). With one worker, tasks run
// sequentially in schedule order and Run stops at the first error; with
// more, every task runs and the lowest-index error is selected
// afterwards, matching the pools it replaced.
func Run(opts Options, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	order := schedule(n, opts.Cost)
	if workers == 1 {
		for _, i := range order {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	// One cursor over the longest-first order: a worker that comes free
	// takes the next task, so a long task holds one worker while the
	// others drain the rest.
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				errs[order[k]] = fn(order[k])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// schedule returns task indices in hand-out order: descending cost with
// ascending-index tie-break, or plain index order without a cost model.
func schedule(n int, cost func(i int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cost == nil {
		return order
	}
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = cost(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	return order
}
