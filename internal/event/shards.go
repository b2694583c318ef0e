// Sharded stepping: one logical simulation, many wheels, many workers.
//
// A Shards ensemble owns N event wheels, one per shard: a simulated JVM,
// a cluster node — any component whose handlers touch only shard-local
// state. Run advances every shard independently to the deadline, fanned
// across a pool of worker goroutines. There is no global safepoint: the
// shards share nothing while they step, and the caller reads them all
// once Run has joined its workers.
//
// Determinism contract: the outcome is byte-identical at any worker
// count, including the workers=1 sequential path, because
//
//   - each shard's wheel executes its own events in (at, seq) order
//     regardless of which worker steps it or when,
//   - handlers on different shards share no state, so the wall-clock
//     interleaving of two shards cannot influence either.
//
// This is the same contract internal/sweep proves for independent
// experiment fan-out, pushed down into the kernel so that one simulation
// (a replicated cluster, a multi-JVM study) can be stepped by multiple
// cores.
package event

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"jvmgc/internal/simtime"
)

// Shards steps N independent event wheels in parallel. Construct with
// NewShards.
type Shards struct {
	shards   []*Sim
	labels   []pprof.LabelSet
	finished []bool
	workers  int
}

// ResolveWorkers maps a configured worker count to an effective one:
// values <= 0 auto-detect from the host (the smaller of GOMAXPROCS and
// the physical core count — a worker per schedulable core, never more)
// capped by the shard count; 1 forces the exact sequential path; larger
// values are capped by the shard count.
func ResolveWorkers(workers, shards int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if n := runtime.NumCPU(); n < workers {
			workers = n
		}
	}
	if workers > shards {
		workers = shards
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// NewShards returns an ensemble of n independent wheels stepped by the
// given number of workers (0 auto-detects, 1 is the sequential path; see
// ResolveWorkers).
func NewShards(n, workers int) *Shards {
	if n < 1 {
		panic(fmt.Sprintf("event: ensemble needs >= 1 shard, got %d", n))
	}
	g := &Shards{
		shards:   make([]*Sim, n),
		labels:   make([]pprof.LabelSet, n),
		finished: make([]bool, n),
		workers:  ResolveWorkers(workers, n),
	}
	for i := range g.shards {
		g.shards[i] = New()
		g.labels[i] = pprof.Labels("shard", strconv.Itoa(i))
	}
	return g
}

// Len returns the shard count.
func (g *Shards) Len() int { return len(g.shards) }

// Shard returns shard i's wheel. Components mounted on it may only touch
// shard-local state from their handlers.
func (g *Shards) Shard(i int) *Sim { return g.shards[i] }

// SetShardLabel attaches a pprof label to shard i's stepping goroutine
// (label key "jvm", alongside the always-present "shard" index), so a
// -cpuprofile of a parallel run attributes simulation time per shard.
func (g *Shards) SetShardLabel(i int, jvm string) {
	g.labels[i] = pprof.Labels("shard", strconv.Itoa(i), "jvm", jvm)
}

// Run advances every live shard to the deadline, fanning the shards
// across the worker pool. A shard whose driver calls Halt on its wheel
// is retired for the remainder of this Run (its clock stays where the
// halting event left it); under an unbounded deadline Run returns when
// every shard has halted or drained. Shards are independent, so the
// assignment of shards to workers is free to be first-come-first-served
// without affecting any result.
func (g *Shards) Run(deadline simtime.Time) {
	if g.workers == 1 {
		for i := range g.shards {
			g.stepShard(i, deadline)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(g.workers)
	for w := 0; w < g.workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(g.shards) {
					return
				}
				pprof.Do(context.Background(), g.labels[i], func(context.Context) {
					g.stepShard(i, deadline)
				})
			}
		}()
	}
	wg.Wait()
}

// RunAll is Run with no deadline: the ensemble steps until every shard
// has halted or drained its queue.
func (g *Shards) RunAll() { g.Run(simtime.MaxTime) }

// stepShard advances one shard to the deadline, retiring it if its
// driver halted the wheel.
func (g *Shards) stepShard(i int, deadline simtime.Time) {
	if g.finished[i] {
		return
	}
	g.shards[i].Run(deadline)
	if g.shards[i].Halted() {
		g.finished[i] = true
	}
}
