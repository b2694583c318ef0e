// Package gcmodel defines the cost primitives and the Collector contract
// shared by the six HotSpot collectors the paper studies.
//
// A collector in this laboratory is a pricing-and-policy object: given a
// snapshot of heap demographics it prices each collection phase in
// simulated seconds (using the machine model's bandwidth and scalability
// curves) and dictates generation-sizing policy (survivor sizing,
// tenuring, concurrent-cycle triggers). The JVM simulator owns state
// evolution; collectors decide how long the world stops and why.
//
// Work is expressed in "traversal bytes": one byte of traversal costs
// 1/LocalBandwidth seconds on one thread against local memory. The
// factors below convert collected volumes into traversal bytes — e.g.
// copying a surviving byte costs more than marking it, and promoting a
// byte into CMS's free-list old generation costs several times more than
// bump-pointer promotion. That last asymmetry is the mechanism behind the
// paper's Table 3 anomaly.
package gcmodel

import (
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/xrand"
)

// Costs converts collected byte volumes into traversal work. All factors
// are dimensionless (traversal bytes per byte of volume).
type Costs struct {
	Copy            float64 // young survivor copied to survivor space
	PromoteBump     float64 // byte promoted via bump pointer (Serial, Parallel*)
	PromoteFreeList float64 // byte promoted into free lists (ParNew/CMS)
	Mark            float64 // live byte traced
	Compact         float64 // live byte slid during compaction
	Sweep           float64 // heap byte swept (free-list rebuild, cheap)
	CardScan        float64 // dirty old-generation byte scanned at minor GC
	RemSetWork      float64 // G1 remembered-set byte updated/scanned

	// DirtyCardFrac is the fraction of the old generation whose cards are
	// dirty at a typical minor collection.
	DirtyCardFrac float64

	// FullParallelFrac is the fraction of a parallel full compaction that
	// actually parallelizes (summary/forwarding phases serialize; Amdahl
	// caps the rest). It is why ParallelOld full GCs of a 64 GB heap
	// still take minutes.
	FullParallelFrac float64

	// OldPressureKnee and OldPressureMax shape the promotion slow-down as
	// the old generation approaches full: beyond the knee occupancy,
	// per-byte promotion cost rises linearly up to ×(1+Max) at 100%.
	OldPressureKnee float64
	OldPressureMax  float64

	// G1FullParallel is an ablation switch: when set, G1's full
	// collection is priced as a parallel compaction (as post-JDK-10 G1
	// does) instead of JDK 8's single-threaded one. The paper's headline
	// Figure 1a/3a results hinge on this being off.
	G1FullParallel bool

	// G1FullHeapFactor prices the heap-capacity-proportional part of a
	// JDK 8 G1 full collection (clearing marks, rebuilding remembered
	// sets and region metadata over the whole committed heap), in
	// traversal bytes per heap byte.
	G1FullHeapFactor float64

	// PauseJitter is the relative noise applied to every priced pause.
	PauseJitter float64
}

// DefaultCosts returns the calibrated conversion factors.
func DefaultCosts() Costs {
	return Costs{
		Copy:             2.0,
		PromoteBump:      2.6,
		PromoteFreeList:  9.0,
		Mark:             0.9,
		Compact:          2.2,
		Sweep:            0.04,
		CardScan:         1.0,
		RemSetWork:       1.4,
		DirtyCardFrac:    0.02,
		FullParallelFrac: 0.75,
		OldPressureKnee:  0.85,
		OldPressureMax:   50.0,
		G1FullHeapFactor: 0.012,
		PauseJitter:      0.12,
	}
}

// Snapshot carries everything a collector needs to price a collection.
type Snapshot struct {
	Machine   *machine.Machine
	Geo       heapmodel.Geometry
	GCThreads int

	// Minor-collection volumes.
	Survived machine.Bytes // bytes staying in young
	Promoted machine.Bytes // bytes moving to old

	// Full-collection volumes.
	LiveYoung machine.Bytes
	LiveOld   machine.Bytes

	// Occupancy context.
	OldUsed      machine.Bytes
	HeapUsed     machine.Bytes
	OldOccupancy float64 // old used / old capacity in [0,1]

	// MutatorThreads is the number of runnable application threads
	// (drives root-scan volume).
	MutatorThreads int

	Rng *xrand.Rand
}

// PressureMultiplier returns the promotion cost multiplier implied by the
// old-generation occupancy in the snapshot.
func (c *Costs) PressureMultiplier(oldOccupancy float64) float64 {
	if oldOccupancy <= c.OldPressureKnee {
		return 1
	}
	span := 1 - c.OldPressureKnee
	if span <= 0 {
		return 1 + c.OldPressureMax
	}
	f := (oldOccupancy - c.OldPressureKnee) / span
	if f > 1 {
		f = 1
	}
	return 1 + c.OldPressureMax*f
}

// RootScanWork estimates traversal bytes for scanning thread stacks and
// globals: ~64 KB per runnable thread plus a 2 MB global base.
func RootScanWork(mutators int) float64 {
	if mutators < 1 {
		mutators = 1
	}
	return float64(2*machine.MB) + float64(mutators)*float64(64*machine.KB)
}

// Jitter applies the configured pause noise and clamps to non-negative.
func (c *Costs) Jitter(d simtime.Duration, rng *xrand.Rand) simtime.Duration {
	if rng == nil {
		return d
	}
	out := simtime.Duration(rng.Jitter(float64(d), c.PauseJitter))
	if out < 0 {
		out = 0
	}
	return out
}

// ParallelPause prices `work` traversal bytes executed by the snapshot's
// GC thread gang, plus root scanning, as a stop-the-world pause (without
// TTSP, which the safepoint model adds).
func (c *Costs) ParallelPause(s Snapshot, work float64) simtime.Duration {
	secs := s.Machine.ParallelSeconds(work+RootScanWork(s.MutatorThreads), s.GCThreads)
	return c.Jitter(simtime.Seconds(secs), s.Rng)
}

// SerialPause prices `work` traversal bytes on a single thread, spanning
// `span` bytes of address space (for the NUMA interleaving penalty).
func (c *Costs) SerialPause(s Snapshot, work float64, span machine.Bytes) simtime.Duration {
	secs := s.Machine.SerialSeconds(work+RootScanWork(s.MutatorThreads), span)
	return c.Jitter(simtime.Seconds(secs), s.Rng)
}

// MixedParallelPause prices a phase of which only parallelFrac
// parallelizes; the remainder runs on one thread spanning `span`.
func (c *Costs) MixedParallelPause(s Snapshot, work float64, parallelFrac float64, span machine.Bytes) simtime.Duration {
	if parallelFrac < 0 {
		parallelFrac = 0
	}
	if parallelFrac > 1 {
		parallelFrac = 1
	}
	par := s.Machine.ParallelSeconds(work*parallelFrac+RootScanWork(s.MutatorThreads), s.GCThreads)
	ser := s.Machine.SerialSeconds(work*(1-parallelFrac), span)
	return c.Jitter(simtime.Seconds(par+ser), s.Rng)
}

// MinorWork converts minor-collection volumes into traversal bytes, using
// the given promotion factor and the old-pressure multiplier, and adds
// dirty-card scanning over the old generation.
func (c *Costs) MinorWork(s Snapshot, promoteFactor float64) float64 {
	pressure := c.PressureMultiplier(s.OldOccupancy)
	work := float64(s.Survived)*c.Copy +
		float64(s.Promoted)*promoteFactor*pressure +
		float64(s.OldUsed)*c.DirtyCardFrac*c.CardScan
	return work
}

// FullWork converts full-collection volumes into traversal bytes for a
// mark-compact collection.
func (c *Costs) FullWork(s Snapshot) float64 {
	live := float64(s.LiveYoung + s.LiveOld)
	return live*c.Mark + live*c.Compact
}

// SurvivorPolicy describes how a collector sizes survivor spaces.
type SurvivorPolicy int

const (
	// FixedSurvivors: survivor spaces are a fixed fraction of young
	// (SurvivorRatio); overflow promotes prematurely. Serial, ParNew and
	// CMS behave this way.
	FixedSurvivors SurvivorPolicy = iota
	// AdaptiveSurvivors: the adaptive size policy grows survivor spaces
	// to fit the surviving cohort (Parallel/ParallelOld ergonomics),
	// avoiding premature promotion.
	AdaptiveSurvivors
)

// ConcurrentKind distinguishes the two concurrent old-generation designs.
type ConcurrentKind int

const (
	// NoConcurrent: the collector has no concurrent machinery.
	NoConcurrent ConcurrentKind = iota
	// CMSStyle: initial-mark pause, concurrent mark, remark pause,
	// concurrent sweep that frees (and fragments) old space.
	CMSStyle
	// G1Style: initial-mark piggybacked on a young pause, concurrent
	// mark, then a sequence of mixed collections that evacuate old
	// regions.
	G1Style
)

// ConcurrentSpec describes a collector's concurrent cycle, if any.
type ConcurrentSpec struct {
	Kind ConcurrentKind
	// InitiatingOccupancy is the old-generation (CMS) or whole-heap (G1)
	// occupancy fraction that starts a cycle.
	InitiatingOccupancy float64
	// Threads is the number of concurrent worker threads (stolen from
	// mutators while a cycle runs).
	Threads int
	// FragmentFrac is the fraction of swept space lost to fragmentation
	// per CMS sweep.
	FragmentFrac float64
	// MixedTarget is the number of mixed collections G1 schedules after a
	// cycle.
	MixedTarget int
}

// Collector is the contract each of the six collectors implements.
type Collector interface {
	// Name returns the HotSpot name, e.g. "ParallelOld".
	Name() string

	// Survivors returns the survivor sizing policy.
	Survivors() SurvivorPolicy

	// TenuringThreshold returns the maximum cohort age before promotion.
	TenuringThreshold() int

	// ParallelYoung reports whether minor collections run on the GC gang
	// (false only for Serial).
	ParallelYoung() bool

	// BarrierFactor is the mutator slow-down from write barriers and
	// allocation-path bookkeeping, >= 1.
	BarrierFactor() float64

	// MinorPause prices a young collection.
	MinorPause(s Snapshot) simtime.Duration

	// FullPause prices a full collection (the collector's own full-GC
	// algorithm: serial or parallel, sweeping or compacting).
	FullPause(s Snapshot) simtime.Duration

	// Concurrent returns the concurrent cycle spec; Kind==NoConcurrent
	// for the stop-the-world-only collectors.
	Concurrent() ConcurrentSpec

	// InitialMarkPause and RemarkPause price the short pauses bracketing
	// a concurrent cycle. They are only called when Concurrent().Kind is
	// not NoConcurrent.
	InitialMarkPause(s Snapshot) simtime.Duration
	RemarkPause(s Snapshot) simtime.Duration

	// ConcurrentMarkSeconds returns the wall-clock duration of concurrent
	// marking for the snapshot's live old volume.
	ConcurrentMarkSeconds(s Snapshot) simtime.Duration

	// MixedPause prices one G1 mixed collection evacuating `reclaim`
	// bytes of old regions on top of a young collection.
	MixedPause(s Snapshot, reclaim machine.Bytes) simtime.Duration
}

// PauseTargeted is implemented by collectors that size the young
// generation adaptively toward a pause-time goal (G1). The JVM simulator
// type-asserts for it and, when the young size was not pinned explicitly,
// resizes eden between collections to chase the target.
type PauseTargeted interface {
	// PauseTarget returns the pause-time goal.
	PauseTarget() simtime.Duration
	// YoungBounds returns the ergonomic young-generation bounds as
	// fractions of the heap.
	YoungBounds() (minFrac, maxFrac float64)
}
