package loadgen

import (
	"container/heap"
	"errors"
	"time"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/xrand"
)

// ServiceModel yields the service time of request i. Models are called
// in arrival order, exactly once per request, so a model holding its
// own seeded generator is deterministic.
type ServiceModel func(i int) time.Duration

// LogNormalService models a right-skewed service time (median, shape
// sigma), the classic fit for request latency. Seeded: same seed, same
// per-request draws.
func LogNormalService(median time.Duration, sigma float64, seed uint64) ServiceModel {
	r := xrand.New(seed).SplitLabeled("loadgen.service")
	return func(int) time.Duration {
		return time.Duration(r.LogNormal(0, sigma) * float64(median))
	}
}

// freeHeap is a min-heap of server free times (virtual nanoseconds).
type freeHeap []time.Duration

func (h freeHeap) Len() int           { return len(h) }
func (h freeHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h freeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *freeHeap) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *freeHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Simulate replays a schedule against a virtual-time queueing model —
// `servers` parallel servers, per-request service times from the model,
// no wall clock anywhere — and returns the same Result a real run
// would. Same schedule + same model ⇒ byte-identical histogram, which
// is what lets CI pin the generator's latency arithmetic exactly.
//
// Open loop is an M/G/k queue fed at intended times: a request arriving
// while all servers are busy waits for the earliest free one, and its
// recorded latency spans wait + service, measured from the *intended*
// arrival. Closed loop has no arrival process at all — each server
// takes the next request the moment it frees up, so recorded latency is
// service time only. Running both against the same stall model shows
// coordinated omission as the gap between the two distributions.
func Simulate(sched Schedule, servers int, model ServiceModel, opts Options) (*Result, error) {
	n := sched.Len()
	if n == 0 {
		return nil, errors.New("loadgen: empty schedule")
	}
	if servers <= 0 {
		servers = 1
	}
	res := &Result{Hist: hdrhist.New(opts.HistConfig), Rate: sched.Rate}
	free := make(freeHeap, servers) // all free at virtual time 0
	heap.Init(&free)
	var last time.Duration
	for i := 0; i < n; i++ {
		service := model(i)
		var latency, complete time.Duration
		if opts.Mode == ClosedLoop {
			// The earliest-free server starts immediately; no queue wait
			// is observable because no request exists until a worker is
			// free to issue it.
			start := free[0]
			complete = start + service
			latency = service
		} else {
			arrival := sched.Offsets[i]
			start := free[0]
			if arrival > start {
				start = arrival
			}
			complete = start + service
			latency = complete - arrival
		}
		free[0] = complete
		heap.Fix(&free, 0)
		res.Hist.Record(latency.Seconds())
		res.Sent++
		if complete > last {
			last = complete
		}
	}
	res.Elapsed = last
	return res, nil
}
