package main

import (
	"math"
	"time"

	"jvmgc"
	"jvmgc/internal/labd"
)

// rng is splitmix64: every input the benchmark generates is a pure
// function of the workload seed through it.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a random permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// logUniform draws from [lo, hi] with a uniform logarithm.
func (r *rng) logUniform(lo, hi float64) float64 {
	return lo * math.Exp(r.float()*math.Log(hi/lo))
}

// The jvm-hours input: every collector on two heaps, each configuration
// simulating the same total JVM time split into the same number of runs
// of seeded lengths, from minutes to hours.
const (
	hoursPerConfig = 24 * time.Hour
	runsPerConfig  = 16
	// Run lengths are proportional to weights drawn log-uniformly from
	// [1, maxRunWeight].
	maxRunWeight = 72.0
)

// jvmHeaps are the two heap sizes: 4 GiB keeps the old generation under
// pressure (full collections recur), 16 GiB leaves young collections to
// dominate.
var jvmHeaps = []int64{4 << 30, 16 << 30}

// jvmRun is one Simulate call of the jvm-hours workload.
type jvmRun struct {
	Collector string
	HeapBytes int64
	Length    time.Duration
	Seed      uint64
}

// The object demography of every jvm-hours run. All of it dies: 90% short-
// lived, 10% medium-lived, nothing long-lived, so the heap reaches a steady
// state and the pauses per simulated hour stay the same however long a run
// is. Simulate's default profile leaves 3% long-lived and fills the heap.
const (
	shortFrac   = 0.9
	shortLife   = 200 * time.Millisecond
	mediumFrac  = 0.1
	mediumLife  = 30 * time.Second
	jvmThreads  = 48
	jvmAllocBPS = 200e6
)

func (r jvmRun) config() jvmgc.SimulationConfig {
	return jvmgc.SimulationConfig{
		Collector:           r.Collector,
		HeapBytes:           r.HeapBytes,
		Threads:             jvmThreads,
		AllocBytesPerSec:    jvmAllocBPS,
		ShortLivedFraction:  shortFrac,
		ShortLifetime:       shortLife,
		MediumLivedFraction: mediumFrac,
		MediumLifetime:      mediumLife,
		Seed:                r.Seed,
	}
}

// jvmRunList is the jvm-hours input for a seed: the configurations and
// the number of runs each are fixed; the split of each configuration's
// hours into runs and every run's simulation seed come from the workload
// seed.
func jvmRunList(seed uint64) []jvmRun {
	r := rng{seed ^ 0x6a766d2d686f7572}
	collectors := jvmgc.Collectors()
	runs := make([]jvmRun, 0, len(jvmHeaps)*len(collectors)*runsPerConfig)
	for _, heap := range jvmHeaps {
		for _, gc := range collectors {
			var weights [runsPerConfig]float64
			var sum float64
			for i := range weights {
				weights[i] = r.logUniform(1, maxRunWeight)
				sum += weights[i]
			}
			left := hoursPerConfig
			for i, w := range weights {
				d := time.Duration(float64(hoursPerConfig) * w / sum).Truncate(time.Second)
				if i == runsPerConfig-1 {
					d = left
				}
				runs = append(runs, jvmRun{Collector: gc, HeapBytes: heap, Length: d, Seed: r.next()})
				left -= d
			}
		}
	}
	return runs
}

// The svc-mix request plan.
const (
	svcNodes  = 2
	hotSpecs  = 64
	missEvery = 10 // each block of ten requests holds exactly one miss
	// Spec durations between these bounds give result bodies from about
	// 0.7 KB to 33 KB.
	minSpecSeconds = 5.0
	maxSpecSeconds = 560.0
)

// svcSpec is the shape of every svc-mix job: one simulate run whose
// result size grows with its simulated duration.
func svcSpec(seed uint64, seconds float64) labd.JobSpec {
	return labd.JobSpec{
		Kind:             labd.KindSimulate,
		Collector:        "ParallelOld",
		HeapBytes:        2 << 30,
		Threads:          8,
		AllocBytesPerSec: 150e6,
		DurationSeconds:  seconds,
		Seed:             seed,
	}
}

// seedBase spaces the spec seeds of one workload seed so that hot specs
// and fresh specs never share a job seed: hot spec i uses base+i, the k-th
// fresh spec of client c uses base+hotSpecs+2k+c.
func seedBase(seed uint64) uint64 {
	r := rng{seed ^ 0x7376632d6d697800}
	return (r.next() >> 24) << 20
}

// specSeconds is the i-th of hotSpecs simulated durations, spaced evenly
// on a log scale over the body-size range.
func specSeconds(i int) float64 {
	frac := float64(i) / float64(hotSpecs-1)
	return math.Round(minSpecSeconds*math.Pow(maxSpecSeconds/minSpecSeconds, frac)*10) / 10
}

// hotSet is the primed specs: one per duration, seeds from the workload
// seed.
func hotSet(seed uint64) []labd.JobSpec {
	base := seedBase(seed)
	out := make([]labd.JobSpec, hotSpecs)
	for i := range out {
		out[i] = svcSpec(base+uint64(i), specSeconds(i))
	}
	return out
}

// planEntry is one planned request: a hit on hot spec Hot, or a miss on
// the fresh spec Spec.
type planEntry struct {
	Miss bool
	Hot  int
	Spec labd.JobSpec
}

// plan is one client's request stream. Client c always enters the fleet
// through node c. The stream is stratified so that every stretch of it
// asks for the same work: each block of missEvery requests holds one
// miss at a seeded position, each run of hotSpecs hits visits every hot
// spec once in a seeded order, and each run of hotSpecs misses uses every
// duration once in a seeded order.
type plan struct {
	r                  rng
	client             int
	base               uint64
	n, missAt          int
	hits, misses       int
	hitOrder, durOrder []int
}

func newPlan(seed uint64, client int) *plan {
	return &plan{r: rng{seed*0x100000001b3 + uint64(client) + 1}, client: client, base: seedBase(seed)}
}

func (p *plan) next() planEntry {
	pos := p.n % missEvery
	if pos == 0 {
		p.missAt = p.r.intn(missEvery)
	}
	p.n++
	if pos == p.missAt {
		if p.misses%hotSpecs == 0 {
			p.durOrder = p.r.perm(hotSpecs)
		}
		seed := p.base + hotSpecs + uint64(2*p.misses+p.client)
		secs := specSeconds(p.durOrder[p.misses%hotSpecs])
		p.misses++
		return planEntry{Miss: true, Spec: svcSpec(seed, secs)}
	}
	if p.hits%hotSpecs == 0 {
		p.hitOrder = p.r.perm(hotSpecs)
	}
	hot := p.hitOrder[p.hits%hotSpecs]
	p.hits++
	return planEntry{Hot: hot}
}
