package event

import (
	"fmt"
	"sort"
	"testing"

	"jvmgc/internal/simtime"
	"jvmgc/internal/xrand"
)

// TestPostBandFiresAfterTies mirrors TestTiesFireInSchedulingOrder for
// the post band: at one instant, every normally scheduled event
// fires before every post-band event regardless of scheduling
// interleaving, and each band keeps scheduling order internally.
func TestPostBandFiresAfterTies(t *testing.T) {
	s := New()
	var order []int
	at := simtime.Time(simtime.Second)
	// Interleave the bands while scheduling: posts get ids >= 100.
	for i := 0; i < 6; i++ {
		i := i
		s.SchedulePostFunc(at, func() { order = append(order, 100+i) })
		s.ScheduleFunc(at, func() { order = append(order, i) })
	}
	s.RunAll()
	want := []int{0, 1, 2, 3, 4, 5, 100, 101, 102, 103, 104, 105}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("band order = %v, want %v", order, want)
	}
}

// TestPostBandOrdersAcrossInstants pins that the band only breaks ties:
// a post event at an earlier instant still fires before a normal event
// at a later one.
func TestPostBandOrdersAcrossInstants(t *testing.T) {
	s := New()
	var order []int
	s.ScheduleFunc(2*simtime.Time(simtime.Second), func() { order = append(order, 2) })
	s.SchedulePostFunc(simtime.Time(simtime.Second), func() { order = append(order, 1) })
	s.RunAll()
	if !sort.IntsAreSorted(order) || len(order) != 2 {
		t.Errorf("order = %v", order)
	}
}

// TestPostBandSeesSameInstantWork pins the driver contract the cassandra
// node relies on: a post event at T observes every effect of normal
// events at T, and normal events it schedules at T still run (right
// after it, exactly like a Run(T)-then-inspect driver scheduling work).
func TestPostBandSeesSameInstantWork(t *testing.T) {
	s := New()
	at := simtime.Time(simtime.Second)
	fired := 0
	var sawAtPost int
	s.SchedulePostFunc(at, func() {
		sawAtPost = fired
		s.ScheduleFunc(at, func() { fired++ }) // reactively scheduled work
	})
	s.ScheduleFunc(at, func() { fired++ })
	s.ScheduleFunc(at, func() { fired++ })
	s.RunAll()
	if sawAtPost != 2 {
		t.Errorf("post handler saw %d fired events, want 2", sawAtPost)
	}
	if fired != 3 {
		t.Errorf("reactively scheduled same-instant event did not run: fired = %d", fired)
	}
}

// TestPostBandRecyclingKeepsSeqUnique pins that the band bit never leaks
// into the pool: a recycled post event rescheduled normally must order
// like a normal event.
func TestPostBandRecyclingKeepsSeqUnique(t *testing.T) {
	s := New()
	s.SchedulePostFunc(0, func() {})
	s.RunAll() // recycles the post event object
	var order []int
	at := simtime.Time(simtime.Second)
	s.SchedulePostFunc(at, func() { order = append(order, 2) })
	s.ScheduleFunc(at, func() { order = append(order, 1) }) // likely the recycled object
	s.RunAll()
	if !sort.IntsAreSorted(order) || len(order) != 2 {
		t.Errorf("recycled post object broke band order: %v", order)
	}
}

// shardWorkload mounts a deterministic self-rescheduling workload on a
// wheel: a seeded random walk that hashes its trajectory, mimicking a
// component whose every event schedules the next.
type shardWorkload struct {
	wheel *Sim
	rng   *xrand.Rand
	sum   uint64
	n     int
}

func (w *shardWorkload) Fire() {
	w.n++
	w.sum = w.sum*1099511628211 + w.rng.Uint64()%1000 + uint64(w.wheel.Now())
	d := simtime.Duration(1+w.rng.Intn(50)) * simtime.Millisecond
	w.wheel.After(d, w)
}

// runEnsemble steps nShards workloads for a simulated minute at the
// given worker count and returns the per-shard sums.
func runEnsemble(nShards, workers int) []uint64 {
	g := NewShards(nShards, workers)
	loads := make([]*shardWorkload, nShards)
	for i := range loads {
		loads[i] = &shardWorkload{wheel: g.Shard(i), rng: xrand.New(uint64(7 + i))}
		g.Shard(i).Schedule(0, loads[i])
		g.SetShardLabel(i, fmt.Sprintf("load%d", i))
	}
	g.Run(simtime.Time(simtime.Minute))
	sums := make([]uint64, nShards)
	for i, l := range loads {
		sums[i] = l.sum
	}
	return sums
}

// TestShardsDeterministicAtAnyWorkerCount is the kernel's half of the
// determinism contract: the same ensemble stepped by 1, 2, 4 and 8
// workers produces identical shard states.
func TestShardsDeterministicAtAnyWorkerCount(t *testing.T) {
	baseSums := runEnsemble(5, 1)
	for _, workers := range []int{2, 4, 8} {
		if sums := runEnsemble(5, workers); fmt.Sprint(sums) != fmt.Sprint(baseSums) {
			t.Errorf("workers=%d shard sums = %v, want %v", workers, sums, baseSums)
		}
	}
}

// TestShardsHaltRetiresShard pins driver-controlled completion: a shard
// whose driver halts its wheel stops stepping (clock parked on the
// halting event) while the others run on.
func TestShardsHaltRetiresShard(t *testing.T) {
	g := NewShards(2, 2)
	stop := 2 * simtime.Time(simtime.Second)
	var ticks0, ticks1 int
	w0 := g.Shard(0)
	var tick0 func()
	tick0 = func() {
		ticks0++
		if w0.Now() >= stop {
			w0.Halt()
			return
		}
		w0.AfterFunc(simtime.Second, tick0)
	}
	w0.AfterFunc(simtime.Second, tick0)
	w1 := g.Shard(1)
	var tick1 func()
	tick1 = func() { ticks1++; w1.AfterFunc(simtime.Second, tick1) }
	w1.AfterFunc(simtime.Second, tick1)

	g.Run(10 * simtime.Time(simtime.Second))
	if ticks0 != 2 {
		t.Errorf("halted shard ticked %d times, want 2", ticks0)
	}
	if w0.Now() != stop {
		t.Errorf("halted shard clock = %v, want %v", w0.Now(), stop)
	}
	if ticks1 != 10 {
		t.Errorf("live shard ticked %d times, want 10", ticks1)
	}
	if w1.Now() != 10*simtime.Time(simtime.Second) {
		t.Errorf("live shard clock = %v", w1.Now())
	}
}

// TestResolveWorkers pins the flag-free fallback: 0 auto-detects (but
// never exceeds the shard count), 1 forces sequential, explicit counts
// are capped by the shard count.
func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(1, 8); got != 1 {
		t.Errorf("ResolveWorkers(1, 8) = %d", got)
	}
	if got := ResolveWorkers(16, 3); got != 3 {
		t.Errorf("ResolveWorkers(16, 3) = %d", got)
	}
	auto := ResolveWorkers(0, 64)
	if auto < 1 || auto > 64 {
		t.Errorf("ResolveWorkers(0, 64) = %d", auto)
	}
	if got := ResolveWorkers(0, 1); got != 1 {
		t.Errorf("ResolveWorkers(0, 1) = %d", got)
	}
}
