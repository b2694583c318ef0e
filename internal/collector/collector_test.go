package collector

import (
	"testing"

	"jvmgc/internal/gcmodel"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

func testConfig() Config {
	cfg := Config{}.withDefaults()
	cfg.Costs.PauseJitter = 0 // deterministic orderings
	return cfg
}

func snap(cfg Config) gcmodel.Snapshot {
	return gcmodel.Snapshot{
		Machine:        cfg.Machine,
		Geo:            heapmodel.Geometry{Heap: 16 * machine.GB, Young: 4 * machine.GB, SurvivorRatio: 8},
		GCThreads:      cfg.GCThreads,
		Survived:       200 * machine.MB,
		Promoted:       50 * machine.MB,
		LiveYoung:      200 * machine.MB,
		LiveOld:        machine.GB,
		OldUsed:        2 * machine.GB,
		HeapUsed:       4 * machine.GB,
		OldOccupancy:   0.2,
		MutatorThreads: 48,
	}
}

// All constructs all six collectors in canonical order.
func All(cfg Config) []gcmodel.Collector {
	names := Names()
	out := make([]gcmodel.Collector, len(names))
	for i, n := range names {
		out[i] = MustNew(n, cfg)
	}
	return out
}

func TestNewByNameAndAliases(t *testing.T) {
	cfg := testConfig()
	for _, alias := range []string{
		"Serial", "SerialGC", "ParNew", "ParNewGC", "Parallel", "ParallelGC",
		"ParallelOld", "ParallelOldGC", "CMS", "ConcMarkSweepGC",
		"ConcurrentMarkSweep", "G1", "G1GC",
	} {
		c, err := New(alias, cfg)
		if err != nil {
			t.Errorf("New(%q): %v", alias, err)
			continue
		}
		if c.Name() == "" {
			t.Errorf("New(%q) has empty name", alias)
		}
	}
	if _, err := New("Shenandoah", cfg); err == nil {
		t.Error("unknown collector accepted")
	}
}

func TestMustNewPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MustNew("ZGC", testConfig())
}

func TestAllReturnsSixInOrder(t *testing.T) {
	all := All(testConfig())
	if len(all) != 6 {
		t.Fatalf("All returned %d collectors", len(all))
	}
	for i, name := range Names() {
		if all[i].Name() != name {
			t.Errorf("All[%d] = %s, want %s", i, all[i].Name(), name)
		}
	}
}

func TestTable1Properties(t *testing.T) {
	// Table 1 of the paper: which collectors have parallel young
	// collections, which survivor policy, which concurrent machinery.
	cfg := testConfig()
	cases := []struct {
		name          string
		parallelYoung bool
		survivors     gcmodel.SurvivorPolicy
		concurrent    gcmodel.ConcurrentKind
	}{
		{"Serial", false, gcmodel.FixedSurvivors, gcmodel.NoConcurrent},
		{"ParNew", true, gcmodel.FixedSurvivors, gcmodel.NoConcurrent},
		{"Parallel", true, gcmodel.AdaptiveSurvivors, gcmodel.NoConcurrent},
		{"ParallelOld", true, gcmodel.AdaptiveSurvivors, gcmodel.NoConcurrent},
		{"CMS", true, gcmodel.FixedSurvivors, gcmodel.CMSStyle},
		{"G1", true, gcmodel.AdaptiveSurvivors, gcmodel.G1Style},
	}
	for _, c := range cases {
		col := MustNew(c.name, cfg)
		if col.ParallelYoung() != c.parallelYoung {
			t.Errorf("%s: ParallelYoung = %v", c.name, col.ParallelYoung())
		}
		if col.Survivors() != c.survivors {
			t.Errorf("%s: Survivors = %v", c.name, col.Survivors())
		}
		if col.Concurrent().Kind != c.concurrent {
			t.Errorf("%s: Concurrent kind = %v", c.name, col.Concurrent().Kind)
		}
		if col.BarrierFactor() < 1 {
			t.Errorf("%s: BarrierFactor %v < 1", c.name, col.BarrierFactor())
		}
		if col.TenuringThreshold() < 1 {
			t.Errorf("%s: TenuringThreshold %d", c.name, col.TenuringThreshold())
		}
	}
}

func TestSerialMinorSlowerThanParallel(t *testing.T) {
	cfg := testConfig()
	s := snap(cfg)
	ser := MustNew("Serial", cfg).MinorPause(s)
	par := MustNew("ParallelOld", cfg).MinorPause(s)
	if par >= ser {
		t.Errorf("parallel minor %v >= serial minor %v", par, ser)
	}
}

func TestFreeListPromotionCostsMore(t *testing.T) {
	// ParNew/CMS promote into free lists: with equal volumes their minor
	// pause must exceed ParallelOld's. This is the Table 3 mechanism.
	cfg := testConfig()
	s := snap(cfg)
	s.Promoted = 500 * machine.MB
	pn := MustNew("ParNew", cfg).MinorPause(s)
	cms := MustNew("CMS", cfg).MinorPause(s)
	po := MustNew("ParallelOld", cfg).MinorPause(s)
	if pn <= po || cms <= po {
		t.Errorf("free-list promotion not more expensive: ParNew %v, CMS %v, ParallelOld %v", pn, cms, po)
	}
}

func TestG1FullIsSlowest(t *testing.T) {
	// JDK8 G1's serial full GC plus remset rebuild must be the most
	// expensive full collection; ParallelOld's parallel compaction the
	// cheapest of the six.
	cfg := testConfig()
	s := snap(cfg)
	s.LiveOld = 4 * machine.GB
	s.HeapUsed = 8 * machine.GB
	var g1, po simtime.Duration
	for _, c := range All(cfg) {
		d := c.FullPause(s)
		switch c.Name() {
		case "G1":
			g1 = d
		case "ParallelOld":
			po = d
		}
	}
	for _, c := range All(cfg) {
		d := c.FullPause(s)
		if c.Name() != "G1" && d > g1 {
			t.Errorf("%s full %v > G1 full %v", c.Name(), d, g1)
		}
		if c.Name() != "ParallelOld" && d < po {
			t.Errorf("%s full %v < ParallelOld full %v", c.Name(), d, po)
		}
	}
}

func TestParallelOldFullGCOn60GBTakesMinutes(t *testing.T) {
	// The paper's stress test: a full collection of a nearly full 64GB
	// heap with ParallelOld stopped the world for ~4 minutes. The model
	// must land in the right order of magnitude (1–8 minutes).
	cfg := testConfig()
	s := snap(cfg)
	s.Geo = heapmodel.Geometry{Heap: 64 * machine.GB, Young: 12 * machine.GB, SurvivorRatio: 8}
	s.LiveOld = 50 * machine.GB
	s.LiveYoung = 6 * machine.GB
	s.HeapUsed = 60 * machine.GB
	s.OldUsed = 51 * machine.GB
	s.OldOccupancy = 0.98
	d := MustNew("ParallelOld", cfg).FullPause(s)
	if d < simtime.Minute || d > 8*simtime.Minute {
		t.Errorf("ParallelOld full GC on 60GB = %v, want minutes", d)
	}
	// And G1's serial full GC must be even longer.
	if g1 := MustNew("G1", cfg).FullPause(s); g1 <= d {
		t.Errorf("G1 full %v <= ParallelOld full %v", g1, d)
	}
}

func TestDaCapoScaleMinorPausesSubSecond(t *testing.T) {
	// On DaCapo-scale volumes (hundreds of MB survived), parallel minor
	// pauses must be in the 10ms–1s band the paper's Figure 1 shows.
	cfg := testConfig()
	s := snap(cfg)
	for _, c := range All(cfg) {
		if c.Name() == "Serial" {
			continue
		}
		d := c.MinorPause(s)
		if d < 10*simtime.Millisecond || d > simtime.Second {
			t.Errorf("%s minor pause %v outside [10ms, 1s]", c.Name(), d)
		}
	}
}

func TestConcurrentSpecs(t *testing.T) {
	cfg := testConfig()
	cms := MustNew("CMS", cfg)
	spec := cms.Concurrent()
	if spec.InitiatingOccupancy <= 0 || spec.InitiatingOccupancy >= 1 {
		t.Errorf("CMS initiating occupancy %v", spec.InitiatingOccupancy)
	}
	if spec.Threads < 1 {
		t.Errorf("CMS conc threads %d", spec.Threads)
	}
	if spec.FragmentFrac <= 0 {
		t.Error("CMS must fragment")
	}
	g1 := MustNew("G1", cfg)
	spec = g1.Concurrent()
	if spec.MixedTarget < 1 {
		t.Errorf("G1 mixed target %d", spec.MixedTarget)
	}
	if spec.InitiatingOccupancy != 0.45 {
		t.Errorf("G1 IHOP %v, want 0.45", spec.InitiatingOccupancy)
	}
}

func TestConcurrentPausesShorterThanFull(t *testing.T) {
	// The whole point of CMS/G1: their cycle pauses must be much shorter
	// than a full collection of the same heap.
	cfg := testConfig()
	s := snap(cfg)
	s.LiveOld = 8 * machine.GB
	s.OldUsed = 9 * machine.GB
	s.HeapUsed = 11 * machine.GB
	for _, name := range []string{"CMS", "G1"} {
		c := MustNew(name, cfg)
		full := c.FullPause(s)
		if im := c.InitialMarkPause(s); im >= full/4 {
			t.Errorf("%s initial mark %v not << full %v", name, im, full)
		}
		if rm := c.RemarkPause(s); rm >= full/2 {
			t.Errorf("%s remark %v not << full %v", name, rm, full)
		}
		if cm := c.ConcurrentMarkSeconds(s); cm <= 0 {
			t.Errorf("%s concurrent mark %v", name, cm)
		}
	}
}

func TestG1PauseTargetAndBounds(t *testing.T) {
	cfg := testConfig()
	g1 := NewG1(cfg)
	var pt gcmodel.PauseTargeted = g1
	if pt.PauseTarget() != 200*simtime.Millisecond {
		t.Errorf("default pause target %v", pt.PauseTarget())
	}
	lo, hi := pt.YoungBounds()
	if lo != 0.05 || hi != 0.60 {
		t.Errorf("young bounds %v, %v", lo, hi)
	}
	cfg.G1PauseTarget = 50 * simtime.Millisecond
	if NewG1(cfg).PauseTarget() != 50*simtime.Millisecond {
		t.Error("custom pause target ignored")
	}
	// Only G1 is pause-targeted.
	for _, c := range All(testConfig()) {
		_, ok := c.(gcmodel.PauseTargeted)
		if ok != (c.Name() == "G1") {
			t.Errorf("%s PauseTargeted = %v", c.Name(), ok)
		}
	}
}

func TestG1MixedPauseExceedsMinor(t *testing.T) {
	cfg := testConfig()
	g1 := NewG1(cfg)
	s := snap(cfg)
	minor := g1.MinorPause(s)
	mixed := g1.MixedPause(s, 2*machine.GB)
	if mixed <= minor {
		t.Errorf("mixed %v <= minor %v", mixed, minor)
	}
}

func TestStwCollectorsHaveInertConcurrentHooks(t *testing.T) {
	cfg := testConfig()
	s := snap(cfg)
	for _, name := range []string{"Serial", "ParNew", "Parallel", "ParallelOld"} {
		c := MustNew(name, cfg)
		if c.InitialMarkPause(s) != 0 || c.RemarkPause(s) != 0 ||
			c.ConcurrentMarkSeconds(s) != 0 || c.MixedPause(s, machine.GB) != 0 {
			t.Errorf("%s has live concurrent hooks", name)
		}
	}
}

func TestRemarkGrowsWithOldGen(t *testing.T) {
	cfg := testConfig()
	cms := NewCMS(cfg)
	small := snap(cfg)
	big := small
	big.OldUsed = 50 * machine.GB
	if cms.RemarkPause(big) <= cms.RemarkPause(small) {
		t.Error("CMS remark did not grow with old generation")
	}
}

// MustNew is New, panicking on error.
func MustNew(name string, cfg Config) gcmodel.Collector {
	c, err := New(name, cfg)
	if err != nil {
		panic(err)
	}
	return c
}
