package cassandra

import (
	"testing"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// shortStress returns a scaled-down stress config that keeps the unit
// tests fast while preserving the memory dynamics (smaller heap, shorter
// run, proportional preload).
func shortStress(collector string) Config {
	cfg := StressConfig(collector, 20*simtime.Minute)
	cfg.Heap = 16 * machine.GB
	cfg.Young = 3 * machine.GB
	cfg.MemtableBudget = cfg.Heap
	cfg.PreloadBytes = 4 * machine.GB
	cfg.OpsPerSec = 800
	cfg.Seed = 5
	return cfg
}

func TestStressConfigNeverFlushes(t *testing.T) {
	res, err := Run(shortStress("CMS"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flushes) != 0 {
		t.Errorf("stress config flushed %d times", len(res.Flushes))
	}
	if res.FinalOldLive < 4*machine.GB {
		t.Errorf("old live %v; writes did not accumulate", res.FinalOldLive)
	}
}

func TestDefaultConfigFlushes(t *testing.T) {
	cfg := DefaultConfig("ParallelOld", 20*simtime.Minute)
	cfg.Heap = 16 * machine.GB
	cfg.Young = 3 * machine.GB
	cfg.MemtableBudget = 2 * machine.GB
	cfg.Seed = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flushes) == 0 {
		t.Fatal("default config never flushed")
	}
	// Flushing keeps live data bounded: well below what the same write
	// volume would pin without flushes.
	written := float64(res.OpsCompleted) * float64(cfg.HeapPerRecord)
	if float64(res.FinalOldLive) > 0.8*written {
		t.Errorf("old live %v vs written %v: flushes ineffective", res.FinalOldLive, machine.Bytes(written))
	}
}

func TestReplayPrecedesServing(t *testing.T) {
	cfg := shortStress("CMS")
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayDuration <= 0 {
		t.Error("no replay phase")
	}
	if res.TotalDuration <= simtime.Duration(cfg.Duration) {
		t.Errorf("total %v does not include replay", res.TotalDuration)
	}
	// Replay populates the database before the client phase.
	replayed := false
	for _, p := range res.Records {
		if p.Time <= simtime.Time(res.ReplayDuration) && p.Records > 0 {
			replayed = true
		}
	}
	if !replayed {
		t.Error("no records after replay")
	}
}

func TestNoPreloadNoReplay(t *testing.T) {
	cfg := DefaultConfig("CMS", 5*simtime.Minute)
	cfg.Heap = 8 * machine.GB
	cfg.Young = 2 * machine.GB
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplayDuration != 0 {
		t.Errorf("replay %v without preload", res.ReplayDuration)
	}
}

func TestCollectorDivergenceUnderStress(t *testing.T) {
	// The paper's headline: under the stress configuration ParallelOld
	// eventually stops the world for orders of magnitude longer than CMS.
	run := func(name string) Result {
		cfg := shortStress(name)
		cfg.Duration = 40 * simtime.Minute
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	po := run("ParallelOld")
	cms := run("CMS")
	if po.Log.MaxPause() < 4*cms.Log.MaxPause() {
		t.Errorf("ParallelOld max %v not >> CMS max %v", po.Log.MaxPause(), cms.Log.MaxPause())
	}
	_, poFull := po.Log.CountPauses()
	if poFull == 0 {
		t.Error("ParallelOld never hit a full collection under stress")
	}
	_, cmsFull := cms.Log.CountPauses()
	if cmsFull > poFull {
		t.Errorf("CMS full GCs (%d) exceed ParallelOld's (%d)", cmsFull, poFull)
	}
}

func TestRecordCurveMonotone(t *testing.T) {
	res, err := Run(shortStress("G1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) < 10 {
		t.Fatalf("only %d record samples", len(res.Records))
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Records < res.Records[i-1].Records {
			t.Fatal("record count decreased")
		}
		if res.Records[i].Time <= res.Records[i-1].Time {
			t.Fatal("record samples out of order")
		}
	}
}

func TestOpsCompletedReducedByPauses(t *testing.T) {
	// A run with heavy GC serves fewer operations than offered.
	cfg := shortStress("ParallelOld")
	cfg.Duration = 40 * simtime.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	offered := int64(cfg.OpsPerSec * cfg.Duration.Seconds())
	if res.OpsCompleted >= offered {
		t.Errorf("completed %d >= offered %d despite pauses", res.OpsCompleted, offered)
	}
	if res.OpsCompleted < offered/2 {
		t.Errorf("completed %d < half the offered load", res.OpsCompleted)
	}
}

func TestUnknownCollector(t *testing.T) {
	cfg := shortStress("Azul")
	if _, err := Run(cfg); err == nil {
		t.Error("unknown collector accepted")
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(shortStress("CMS"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortStress("CMS"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Log.String() != b.Log.String() || a.OpsCompleted != b.OpsCompleted {
		t.Error("same seed produced different runs")
	}
}

func TestPausesOrderedInTime(t *testing.T) {
	res, err := Run(shortStress("CMS"))
	if err != nil {
		t.Fatal(err)
	}
	pauses := res.Log.Pauses()
	for i := 1; i < len(pauses); i++ {
		if pauses[i].Start < pauses[i-1].Start {
			t.Fatal("pauses out of order")
		}
	}
	if len(pauses) == 0 {
		t.Error("stress run produced no pauses")
	}
	for _, e := range pauses {
		if !e.Kind.IsPause() {
			t.Errorf("non-pause kind %v in Pauses()", e.Kind)
		}
	}
}

func TestCompactionRunsAndStealsCPU(t *testing.T) {
	base := DefaultConfig("ParallelOld", 30*simtime.Minute)
	base.Heap = 16 * machine.GB
	base.Young = 3 * machine.GB
	base.MemtableBudget = machine.GB
	base.Seed = 21

	withComp := base
	withComp.CompactionThreads = 8
	withComp.CompactionThreshold = 2
	rc, err := Run(withComp)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Compactions == 0 {
		t.Fatal("no compactions despite frequent flushes")
	}

	without := base
	r0, err := Run(without)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Compactions != 0 {
		t.Errorf("compactions ran with 0 threads: %d", r0.Compactions)
	}
	// The compacting node serves fewer operations: its merges steal CPU
	// from the mutators.
	if rc.OpsCompleted >= r0.OpsCompleted {
		t.Errorf("compaction did not cost throughput: %d vs %d ops",
			rc.OpsCompleted, r0.OpsCompleted)
	}
}

func TestBackgroundCPUAffectsProgressOnly(t *testing.T) {
	// Sanity at the jvm level through the cassandra path: a run with
	// compaction still finishes and records consistent flush counts.
	cfg := DefaultConfig("CMS", 20*simtime.Minute)
	cfg.Heap = 16 * machine.GB
	cfg.Young = 3 * machine.GB
	cfg.MemtableBudget = machine.GB
	cfg.CompactionThreads = 4
	cfg.Seed = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flushes) == 0 {
		t.Error("no flushes")
	}
	for i := 1; i < len(res.Flushes); i++ {
		if res.Flushes[i].Time <= res.Flushes[i-1].Time {
			t.Fatal("flushes out of order")
		}
	}
}
