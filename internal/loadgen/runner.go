package loadgen

import (
	"context"
	"errors"
	"sync"
	"time"

	"jvmgc/internal/hdrhist"
)

// Mode selects how the generator paces requests.
type Mode int

const (
	// OpenLoop dispatches at the schedule's intended times regardless of
	// how the service is doing, and measures latency from the intended
	// start — the coordinated-omission-safe mode.
	OpenLoop Mode = iota
	// ClosedLoop runs a fixed worker pool, each worker issuing its next
	// request the moment the previous one completes; latency is measured
	// from the actual send. This is the mode that *hides* queueing under
	// a stall — provided for contrast and for peak-capacity probing.
	ClosedLoop
)

func (m Mode) String() string {
	if m == ClosedLoop {
		return "closed"
	}
	return "open"
}

// Target is one request sink: Do issues request i and returns when it
// completed (nil) or failed. Implementations must be safe for
// concurrent calls.
type Target interface {
	Do(ctx context.Context, i int) error
}

// TargetFunc adapts a function to Target.
type TargetFunc func(ctx context.Context, i int) error

func (f TargetFunc) Do(ctx context.Context, i int) error { return f(ctx, i) }

// Options shape a run.
type Options struct {
	// Mode selects open- or closed-loop pacing (default OpenLoop).
	Mode Mode
	// Workers bounds in-flight requests (default 64). In open loop this
	// is the service-side concurrency only — dispatch timing never
	// depends on it; queue wait shows up in the recorded latency, as it
	// must.
	Workers int
}

// Result is one run's accounting.
type Result struct {
	// Hist holds the latency distribution in seconds — from intended
	// start in open loop, from actual send in closed loop.
	Hist *hdrhist.Hist
	// Sent counts requests issued; Failed counts non-nil Do results.
	// Failed requests still record their latency: a timeout under
	// overload is a tail sample, not a missing one.
	Sent, Failed int
	// Elapsed is the wall-clock span from origin to the last
	// completion.
	Elapsed time.Duration
	// Rate echoes the schedule's offered rate.
	Rate float64
}

// Throughput returns completed requests per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Sent-r.Failed) / r.Elapsed.Seconds()
}

type dispatch struct {
	i        int
	intended time.Time
}

// Run drives the schedule against the target in real time and returns
// the latency accounting. Open loop: a dispatcher walks the intended
// times and hands work to a bounded worker pool through a channel big
// enough to hold the whole schedule, so a stalled service never blocks
// the dispatcher — arrivals keep their intended timestamps and the
// queue wait is charged to the service. Closed loop: the worker pool
// consumes indices as fast as completions allow.
func Run(ctx context.Context, sched Schedule, tgt Target, opts Options) (*Result, error) {
	n := sched.Len()
	if n == 0 {
		return nil, errors.New("loadgen: empty schedule")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 64
	}
	if workers > n {
		workers = n
	}
	res := &Result{Hist: hdrhist.New(hdrhist.Config{}), Rate: sched.Rate}
	var mu sync.Mutex // guards res
	record := func(intended time.Time, err error) {
		now := time.Now()
		mu.Lock()
		res.Hist.RecordIntended(intended, now)
		res.Sent++
		if err != nil {
			res.Failed++
		}
		mu.Unlock()
	}

	origin := time.Now()
	var wg sync.WaitGroup
	if opts.Mode == ClosedLoop {
		var next int
		var nextMu sync.Mutex
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					nextMu.Lock()
					i := next
					next++
					nextMu.Unlock()
					if i >= n || ctx.Err() != nil {
						return
					}
					start := time.Now()
					err := tgt.Do(ctx, i)
					record(start, err)
				}
			}()
		}
		wg.Wait()
	} else {
		// The channel buffers the entire schedule: the dispatcher can
		// never block on slow workers, which is the whole point.
		ch := make(chan dispatch, n)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for d := range ch {
					if ctx.Err() != nil {
						record(d.intended, ctx.Err())
						continue
					}
					err := tgt.Do(ctx, d.i)
					record(d.intended, err)
				}
			}()
		}
		for i, off := range sched.Offsets {
			intended := origin.Add(off)
			if wait := time.Until(intended); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			}
			ch <- dispatch{i: i, intended: intended}
		}
		close(ch)
		wg.Wait()
	}
	res.Elapsed = time.Since(origin)
	if ctx.Err() != nil && res.Sent == 0 {
		return nil, ctx.Err()
	}
	return res, nil
}
