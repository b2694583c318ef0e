package jvm

import (
	"math"
	"testing"

	"jvmgc/internal/collector"
	"jvmgc/internal/demography"
	"jvmgc/internal/gclog"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

func mkConfig(t *testing.T, colName string, heap, young machine.Bytes) Config {
	t.Helper()
	m := machine.New(machine.PaperTestbed())
	col, err := collector.New(colName, collector.Config{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Machine:   m,
		Collector: col,
		Geometry:  heapmodel.Geometry{Heap: heap, Young: young, SurvivorRatio: heapmodel.DefaultSurvivorRatio},
		Seed:      42,
	}
}

func mkWorkload(allocPerSec float64) Workload {
	return Workload{
		Threads:   48,
		AllocRate: allocPerSec,
		Profile: demography.Profile{
			ShortFrac:  0.90,
			MeanShort:  200 * simtime.Millisecond,
			MediumFrac: 0.07,
			MeanMedium: 5 * simtime.Second,
		},
	}
}

func TestNoGCWhenHeapHuge(t *testing.T) {
	// The paper's batik observation: with a 64GB heap and modest
	// allocation, no collection ever happens.
	cfg := mkConfig(t, "ParallelOld", 64*machine.GB, 12*machine.GB)
	j := New(cfg, mkWorkload(50e6)) // 50 MB/s for 20s = 1GB << eden
	wall := j.RunUntilProgress(20)
	if p, _ := j.Log().CountPauses(); p != 0 {
		t.Fatalf("%d pauses on a huge heap:\n%s", p, j.Log())
	}
	// Wall time equals ideal work stretched only by the write-barrier tax
	// (no pauses, no steal, TLAB on).
	want := 20 * cfg.Collector.BarrierFactor()
	if d := math.Abs(wall.Seconds() - want); d > 0.02 {
		t.Errorf("wall = %v, want ~%vs", wall, want)
	}
}

func TestMinorGCFrequencyMatchesAllocationRate(t *testing.T) {
	cfg := mkConfig(t, "ParallelOld", 8*machine.GB, 2*machine.GB)
	w := mkWorkload(800e6) // 0.8 GB/s
	j := New(cfg, w)
	j.RunUntilProgress(30)
	pauses, full := j.Log().CountPauses()
	if full != 0 {
		t.Errorf("unexpected full GCs: %d", full)
	}
	// Effective eden ≈ 1.6GB minus TLAB waste; 0.8GB/s for ~30s ≈ 24GB
	// allocated → ~15 minor GCs, modulo waste and pause stretching.
	if pauses < 10 || pauses > 25 {
		t.Errorf("minor GCs = %d, want ~15", pauses)
	}
}

func TestPausesFreezeProgress(t *testing.T) {
	cfg := mkConfig(t, "ParallelOld", 8*machine.GB, 2*machine.GB)
	j := New(cfg, mkWorkload(800e6))
	wall := j.RunUntilProgress(30)
	total := j.Log().TotalPause()
	if total <= 0 {
		t.Fatal("no pauses recorded")
	}
	// Wall = barrier-stretched work + pauses (within a small tolerance
	// for the final partial interval).
	want := 30*cfg.Collector.BarrierFactor() + total.Seconds()
	if d := math.Abs(wall.Seconds() - want); d > 0.1 {
		t.Errorf("wall %.3fs, want %.3fs (work 30 + pauses %.3f)", wall.Seconds(), want, total.Seconds())
	}
}

func TestSystemGCLogsFullPause(t *testing.T) {
	cfg := mkConfig(t, "ParallelOld", 16*machine.GB, 4*machine.GB)
	j := New(cfg, mkWorkload(500e6))
	j.RunUntilProgress(2)
	j.SystemGC()
	_, full := j.Log().CountPauses()
	if full != 1 {
		t.Fatalf("full GCs = %d, want 1", full)
	}
	events := j.Log().Pauses()
	last := events[len(events)-1]
	if last.Kind != gclog.PauseFull || last.Cause != gclog.CauseSystemGC {
		t.Errorf("last pause = %v (%s)", last.Kind, last.Cause)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		cfg := mkConfig(t, "CMS", 4*machine.GB, machine.GB)
		j := New(cfg, mkWorkload(900e6))
		j.RunUntilProgress(20)
		return j.Log().String()
	}
	if run() != run() {
		t.Error("identical seeds produced different logs")
	}
}

func TestSeedChangesJitter(t *testing.T) {
	logFor := func(seed uint64) string {
		cfg := mkConfig(t, "ParallelOld", 8*machine.GB, 2*machine.GB)
		cfg.Seed = seed
		j := New(cfg, mkWorkload(800e6))
		j.RunUntilProgress(10)
		return j.Log().String()
	}
	if logFor(1) == logFor(2) {
		t.Error("different seeds produced identical logs")
	}
}

func TestPromotionFailureEscalatesToFullGC(t *testing.T) {
	// A small heap with a persistent live set bigger than old space
	// tolerates only so many promotions before a full collection.
	cfg := mkConfig(t, "ParallelOld", 512*machine.MB, 128*machine.MB)
	w := mkWorkload(400e6)
	w.Profile.ShortFrac = 0.65
	w.Profile.MediumFrac = 0.30
	w.Profile.MeanMedium = 20 * simtime.Second
	j := New(cfg, w)
	j.RunUntilProgress(30)
	_, full := j.Log().CountPauses()
	if full == 0 {
		t.Errorf("no full GCs under old-generation pressure:\n%s", j.Log())
	}
}

func TestCMSRunsConcurrentCycle(t *testing.T) {
	cfg := mkConfig(t, "CMS", 4*machine.GB, machine.GB)
	w := mkWorkload(800e6)
	// No long-lived component: old-generation churn only, so CMS cycles
	// can keep up indefinitely.
	w.Profile.ShortFrac = 0.75
	w.Profile.MediumFrac = 0.25
	w.Profile.MeanMedium = 6 * simtime.Second
	j := New(cfg, w)
	j.RunUntilProgress(60)

	var initialMarks, remarks, sweeps int
	for _, e := range j.Log().Events() {
		switch e.Kind {
		case gclog.PauseInitialMark:
			initialMarks++
		case gclog.PauseRemark:
			remarks++
		case gclog.ConcurrentSweep:
			sweeps++
		}
	}
	if initialMarks == 0 || remarks == 0 || sweeps == 0 {
		t.Fatalf("cycle phases missing: im=%d rm=%d sw=%d\n%s",
			initialMarks, remarks, sweeps, j.Log())
	}
	// Cycles must have freed old-generation garbage: occupancy stays
	// below 100% without full GCs dominating.
	_, full := j.Log().CountPauses()
	if full > 2 {
		t.Errorf("CMS fell back to %d full GCs", full)
	}
}

func TestCMSCyclePausesShorterThanParallelOldFull(t *testing.T) {
	// The design goal of CMS: its max pause under old-gen churn must be
	// far below a full collection of the same heap.
	mkJ := func(name string) *JVM {
		cfg := mkConfig(t, name, 4*machine.GB, machine.GB)
		w := mkWorkload(800e6)
		w.Profile.ShortFrac = 0.75
		w.Profile.MediumFrac = 0.25
		w.Profile.MeanMedium = 6 * simtime.Second
		return New(cfg, w)
	}
	cms := mkJ("CMS")
	cms.RunUntilProgress(60)
	po := mkJ("ParallelOld")
	po.RunUntilProgress(60)
	_, cmsFull := cms.Log().CountPauses()
	_, poFull := po.Log().CountPauses()
	if cmsFull > poFull {
		t.Errorf("CMS had more full GCs (%d) than ParallelOld (%d)", cmsFull, poFull)
	}
}

func TestG1AdaptiveYoungGrowsTowardTarget(t *testing.T) {
	cfg := mkConfig(t, "G1", 16*machine.GB, 4*machine.GB)
	j := New(cfg, mkWorkload(800e6))
	startYoung := j.Heap().Geometry().Young
	// G1 ignores the configured young and starts at 5% of heap.
	if startYoung != 16*machine.GB/20 {
		t.Fatalf("G1 initial young = %v", startYoung)
	}
	j.RunUntilProgress(30)
	grown := j.Heap().Geometry().Young
	if grown <= startYoung {
		t.Errorf("young did not grow: %v -> %v", startYoung, grown)
	}
	if max := 16 * machine.GB * 3 / 5; grown > max {
		t.Errorf("young %v exceeded 60%% bound", grown)
	}
}

func TestG1ExplicitYoungDisablesAdaptivity(t *testing.T) {
	cfg := mkConfig(t, "G1", 16*machine.GB, 4*machine.GB)
	cfg.YoungExplicit = true
	j := New(cfg, mkWorkload(800e6))
	j.RunUntilProgress(20)
	if got := j.Heap().Geometry().Young; got != 4*machine.GB {
		t.Errorf("young changed despite -Xmn: %v", got)
	}
}

func TestTLABOffSlowsMutator(t *testing.T) {
	run := func(tlabOn bool) simtime.Duration {
		cfg := mkConfig(t, "ParallelOld", 32*machine.GB, 8*machine.GB)
		cfg.TLAB = heapmodel.DefaultTLAB()
		cfg.TLAB.Enabled = tlabOn
		j := New(cfg, mkWorkload(2e9))
		return j.RunUntilProgress(10)
	}
	on, off := run(true), run(false)
	if off <= on {
		t.Errorf("TLAB off (%v) not slower than on (%v)", off, on)
	}
}

func TestPinnedDataCountsAsOldLive(t *testing.T) {
	cfg := mkConfig(t, "CMS", 8*machine.GB, 2*machine.GB)
	j := New(cfg, mkWorkload(100e6))
	got := j.AddPinned(3 * machine.GB)
	if got != 3*machine.GB {
		t.Fatalf("accepted %v", got)
	}
	if j.OldLive() != 3*machine.GB {
		t.Errorf("old live = %v", j.OldLive())
	}
}

func TestPinnedPressureTriggersCMSCycle(t *testing.T) {
	cfg := mkConfig(t, "CMS", 8*machine.GB, 2*machine.GB)
	j := New(cfg, mkWorkload(100e6))
	// Push old occupancy over the 80% initiating threshold: old = 6GB.
	j.AddPinned(5 * machine.GB)
	j.RunFor(30 * simtime.Second)
	found := false
	for _, e := range j.Log().Events() {
		if e.Kind == gclog.PauseInitialMark {
			found = true
		}
	}
	if !found {
		t.Errorf("no CMS cycle under pinned pressure:\n%s", j.Log())
	}
}

func TestReleaseLongLivedFreesLiveSet(t *testing.T) {
	cfg := mkConfig(t, "ParallelOld", 8*machine.GB, 2*machine.GB)
	w := mkWorkload(500e6)
	w.Profile = demography.Profile{ShortFrac: 0.5, MeanShort: 100 * simtime.Millisecond}
	j := New(cfg, w)
	j.RunUntilProgress(10)
	before := j.OldLive() + j.tracker.YoungLive(j.Now())
	if before == 0 {
		t.Fatal("setup: no long-lived data accumulated")
	}
	j.ReleaseLongLived(1.0)
	after := j.OldLive() + j.tracker.YoungLive(j.Now())
	if after >= before/4 {
		t.Errorf("release ineffective: %v -> %v", before, after)
	}
}

func TestRunForAdvancesClockWithoutEvents(t *testing.T) {
	cfg := mkConfig(t, "Serial", 64*machine.GB, 16*machine.GB)
	w := mkWorkload(0) // no allocation: no events at all
	j := New(cfg, w)
	j.RunFor(90 * simtime.Second)
	if j.Now() != simtime.Time(90*simtime.Second) {
		t.Errorf("clock = %v", j.Now())
	}
	if j.Progress() < 89.9 {
		t.Errorf("progress = %v", j.Progress())
	}
}

func TestBarrierFactorSlowsG1Mutator(t *testing.T) {
	run := func(name string) simtime.Duration {
		cfg := mkConfig(t, name, 64*machine.GB, 16*machine.GB)
		j := New(cfg, mkWorkload(50e6)) // no GCs, isolate barrier effect
		return j.RunUntilProgress(20)
	}
	serial, g1 := run("Serial"), run("G1")
	if g1 <= serial {
		t.Errorf("G1 wall %v <= Serial wall %v without GCs", g1, serial)
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	cfg := mkConfig(t, "Serial", 8*machine.GB, 2*machine.GB)
	cases := []func(){
		func() { New(Config{}, mkWorkload(1)) },                         // no collector
		func() { New(cfg, Workload{Threads: 0, AllocRate: 1}) },         // no threads
		func() { New(cfg, Workload{Threads: 1, AllocRate: -1}) },        // bad rate
		func() { j := New(cfg, mkWorkload(1)); j.RunFor(-1) },           // negative run
		func() { j := New(cfg, mkWorkload(1)); j.SetAllocRate(-5) },     // bad rate
		func() { j := New(cfg, mkWorkload(1)); j.RunUntilProgress(-1) }, // negative work
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestMixedCollectionsAfterG1Cycle(t *testing.T) {
	cfg := mkConfig(t, "G1", 4*machine.GB, machine.GB)
	w := mkWorkload(800e6)
	w.Profile.ShortFrac = 0.65
	w.Profile.MediumFrac = 0.30
	w.Profile.MeanMedium = 8 * simtime.Second
	j := New(cfg, w)
	j.RunUntilProgress(60)
	var mixed, initialMarks int
	for _, e := range j.Log().Events() {
		switch e.Kind {
		case gclog.PauseMixed:
			mixed++
		case gclog.PauseInitialMark:
			initialMarks++
		}
	}
	if initialMarks == 0 {
		t.Fatalf("G1 never started a cycle:\n%s", j.Log())
	}
	if mixed == 0 {
		t.Errorf("G1 cycle produced no mixed collections:\n%s", j.Log())
	}
}

func TestOutOfMemoryDetection(t *testing.T) {
	// A workload whose long-lived data outgrows the heap must trip the
	// OutOfMemoryError condition instead of silently clamping.
	cfg := mkConfig(t, "ParallelOld", 512*machine.MB, 128*machine.MB)
	w := mkWorkload(200e6)
	w.Profile = demography.Profile{ShortFrac: 0.5, MeanShort: 100 * simtime.Millisecond} // 50% immortal
	j := New(cfg, w)
	j.RunFor(60 * simtime.Second)
	at, short, oom := j.OutOfMemory()
	if !oom {
		t.Fatal("no OOM despite 6GB of immortal allocation into a 512MB heap")
	}
	if at <= 0 || short <= 0 {
		t.Errorf("OOM details: at=%v short=%v", at, short)
	}
	// A healthy run reports no OOM.
	healthy := New(mkConfig(t, "ParallelOld", 8*machine.GB, 2*machine.GB), mkWorkload(500e6))
	healthy.RunFor(30 * simtime.Second)
	if _, _, oom := healthy.OutOfMemory(); oom {
		t.Error("healthy run reported OOM")
	}
}

func TestConcurrentMarkingStealsCores(t *testing.T) {
	// While a CMS cycle's concurrent phases run, mutators lose the cores
	// the concurrent gang occupies, so the same work takes longer than
	// pauses alone explain.
	cfg := mkConfig(t, "CMS", 8*machine.GB, 2*machine.GB)
	j := New(cfg, mkWorkload(100e6))
	// Push old occupancy over the trigger and let the cycle run.
	j.AddPinned(5 * machine.GB)
	start := j.Progress()
	j.RunFor(10 * simtime.Second)
	duringCycle := j.Progress() - start

	quiet := New(mkConfig(t, "CMS", 8*machine.GB, 2*machine.GB), mkWorkload(100e6))
	qStart := quiet.Progress()
	quiet.RunFor(10 * simtime.Second)
	quietProgress := quiet.Progress() - qStart

	if duringCycle >= quietProgress {
		t.Errorf("progress with cycle %v >= without %v; no core steal", duringCycle, quietProgress)
	}
}

func TestSetAllocRateMidRun(t *testing.T) {
	cfg := mkConfig(t, "ParallelOld", 8*machine.GB, 2*machine.GB)
	j := New(cfg, mkWorkload(100e6))
	j.RunFor(10 * simtime.Second)
	before, _ := j.Log().CountPauses()
	j.SetAllocRate(4e9) // 40x the rate: pauses arrive fast now
	if j.AllocRate() != 4e9 {
		t.Fatalf("AllocRate = %v", j.AllocRate())
	}
	j.RunFor(10 * simtime.Second)
	after, _ := j.Log().CountPauses()
	if after-before < 3 {
		t.Errorf("only %d pauses after rate increase", after-before)
	}
	// Dropping to zero stops collections entirely.
	j.SetAllocRate(0)
	mid, _ := j.Log().CountPauses()
	j.RunFor(30 * simtime.Second)
	final, _ := j.Log().CountPauses()
	if final != mid {
		t.Errorf("%d pauses with zero allocation", final-mid)
	}
}

func TestHumongousAllocationBypassesEden(t *testing.T) {
	cfg := mkConfig(t, "G1", 8*machine.GB, 2*machine.GB)
	cfg.YoungExplicit = true
	w := mkWorkload(400e6)
	w.HumongousFrac = 0.3
	j := New(cfg, w)
	j.RunFor(20 * simtime.Second)
	// Old occupancy grows even though nothing was promoted yet (the
	// humongous 30% lands there directly).
	if j.Heap().OldUsed() < 500*machine.MB {
		t.Errorf("old used = %v with 30%% humongous at 400MB/s", j.Heap().OldUsed())
	}
	// And eden fills ~30% slower: fewer young GCs than the plain run.
	plain := New(func() Config {
		c := mkConfig(t, "G1", 8*machine.GB, 2*machine.GB)
		c.YoungExplicit = true
		return c
	}(), mkWorkload(400e6))
	plain.RunFor(20 * simtime.Second)
	hp, _ := j.Log().CountPauses()
	pp, _ := plain.Log().CountPauses()
	if hp >= pp {
		t.Errorf("humongous run had %d young pauses vs plain %d", hp, pp)
	}
}

func TestHumongousFractionValidated(t *testing.T) {
	cfg := mkConfig(t, "G1", 8*machine.GB, 2*machine.GB)
	w := mkWorkload(1e6)
	w.HumongousFrac = 1.5
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(cfg, w)
}

func TestHumongousGarbageReclaimedByCycles(t *testing.T) {
	// Humongous garbage accumulates in old until a concurrent cycle
	// sweeps it — the CMS/G1 advantage over the throughput collectors.
	cfg := mkConfig(t, "CMS", 4*machine.GB, machine.GB)
	w := mkWorkload(600e6)
	w.Profile = demography.Profile{ShortFrac: 1, MeanShort: 100 * simtime.Millisecond}
	w.HumongousFrac = 0.4 // short-lived humongous buffers
	j := New(cfg, w)
	j.RunFor(3 * simtime.Minute)
	// Old used stays bounded because cycles keep reclaiming the dead
	// humongous data; without reclamation 0.4*600MB/s*180s = 43GB would
	// have overflowed the 3GB old generation long ago.
	if _, _, oom := j.OutOfMemory(); oom {
		t.Fatal("humongous garbage was never reclaimed (OOM)")
	}
	var cycles int
	for _, e := range j.Log().Events() {
		if e.Kind == gclog.ConcurrentSweep {
			cycles++
		}
	}
	if cycles == 0 {
		t.Error("no concurrent cycles despite humongous churn")
	}
}

func TestSafepointStats(t *testing.T) {
	cfg := mkConfig(t, "ParallelOld", 8*machine.GB, 2*machine.GB)
	j := New(cfg, mkWorkload(800e6))
	j.RunUntilProgress(20)
	count, total, max := j.SafepointStats()
	pauses, _ := j.Log().CountPauses()
	if count != pauses {
		t.Errorf("safepoints %d != pauses %d", count, pauses)
	}
	if total <= 0 || max <= 0 || max > total {
		t.Errorf("ttsp total %v max %v", total, max)
	}
	// TTSP is sub-millisecond per safepoint on a healthy run.
	if avg := total / simtime.Duration(count); avg > 2*simtime.Millisecond {
		t.Errorf("avg TTSP %v", avg)
	}
	// And TTSP is part of, not in addition to, the logged pauses.
	if total >= j.Log().TotalPause() {
		t.Errorf("ttsp %v >= total pause %v", total, j.Log().TotalPause())
	}
}

// SafepointStats reports the safepoint count and the total and maximum
// time-to-safepoint paid across them — HotSpot's
// -XX:+PrintSafepointStatistics view of the run. TTSP is part of every
// logged pause duration; this isolates it.
func (j *JVM) SafepointStats() (count int, total, max simtime.Duration) {
	return j.sp.Count(), j.sp.Total(), j.sp.Max()
}
