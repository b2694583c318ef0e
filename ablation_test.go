// Ablations: each subtest of TestAblations switches off a single
// modelled mechanism that DESIGN.md §5 calls load-bearing for a paper
// result, and requires the result with the mechanism on and its absence
// with it off. If an ablated run still showed the paper's effect, the
// model would be getting the result for the wrong reason.
//
//	FreeListPromotion — Table 3's inversion needs CMS's expensive
//	    free-list promotion; with bump-cost promotion it disappears.
//	OldPressure — §4.1's tens-of-seconds ParallelOld young pauses need
//	    the old-generation promotion slow-path.
//	NUMA — the minutes-scale full collection needs the NUMA
//	    remote-access penalty.
//	G1SerialFull — Figure 1a/2a's G1 collapse needs JDK 8's
//	    single-threaded full GC; with a parallel full GC (JDK 10+) G1
//	    rejoins the pack.
package jvmgc_test

import (
	"testing"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/dacapo"
	"jvmgc/internal/gclog"
	"jvmgc/internal/gcmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// TestAblations measures each headline quantity with its mechanism on
// and off. One threshold per subtest splits the two: the mechanism on
// must read above it and off below it.
func TestAblations(t *testing.T) {
	for _, c := range []struct {
		name      string
		threshold float64
		measure   func(t *testing.T, ablate bool) float64
	}{
		{"FreeListPromotion", 2.0, func(t *testing.T, ablate bool) float64 {
			return table3Inversion(t, costsWithout(ablate, func(c *gcmodel.Costs) { c.PromoteFreeList = c.PromoteBump }))
		}},
		{"OldPressure", 5, func(t *testing.T, ablate bool) float64 {
			youngMax, _ := stressMaxPauses(t, costsWithout(ablate, func(c *gcmodel.Costs) { c.OldPressureMax = 0 }), nil)
			return youngMax
		}},
		{"NUMA", 60, func(t *testing.T, ablate bool) float64 {
			var m *machine.Machine
			if ablate {
				m = machine.New(machine.PaperTestbed())
				m.Cost.RemoteFactor = 1.0 // remote access as fast as local
			}
			_, fullMax := stressMaxPauses(t, nil, m)
			return fullMax
		}},
		{"G1SerialFull", 1.4, func(t *testing.T, ablate bool) float64 {
			return g1ExecRatio(t, costsWithout(ablate, func(c *gcmodel.Costs) { c.G1FullParallel = true }))
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			on, off := c.measure(t, false), c.measure(t, true)
			t.Logf("mechanism on %.3g, off %.3g, threshold %g", on, off, c.threshold)
			if on <= c.threshold {
				t.Errorf("with the mechanism on, %.3g does not exceed %g: the paper's effect is gone", on, c.threshold)
			}
			if off >= c.threshold {
				t.Errorf("with the mechanism off, %.3g is not below %g: the effect does not rest on it", off, c.threshold)
			}
		})
	}
}

// costsWithout returns nil, the default costs, unless ablate; then it
// returns the default costs with the mechanism switched off by off.
func costsWithout(ablate bool, off func(*gcmodel.Costs)) *gcmodel.Costs {
	if !ablate {
		return nil
	}
	c := gcmodel.DefaultCosts()
	off(&c)
	return &c
}

// table3Inversion runs the H2/CMS 64 GB young-size sweep endpoints and
// returns avg(6 GB young) / avg(48 GB young).
func table3Inversion(t *testing.T, costs *gcmodel.Costs) float64 {
	t.Helper()
	bench, err := dacapo.ByName("h2")
	if err != nil {
		t.Fatal(err)
	}
	avg := func(young machine.Bytes) float64 {
		cfg := dacapo.BaselineConfig(bench)
		cfg.CollectorName = "CMS"
		cfg.Heap = 64 * machine.GB
		cfg.Young = young
		cfg.YoungExplicit = true
		cfg.SystemGC = false
		cfg.Costs = costs
		cfg.Seed = 42
		res, err := dacapo.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Log.AvgPause().Seconds()
	}
	small := avg(6 * machine.GB)
	big := avg(48 * machine.GB)
	if big == 0 {
		return 0
	}
	return small / big
}

// stressMaxPauses runs the ParallelOld Cassandra stress test and returns
// its worst non-full and worst full pause in seconds.
func stressMaxPauses(t *testing.T, costs *gcmodel.Costs, m *machine.Machine) (youngMax, fullMax float64) {
	t.Helper()
	cfg := cassandra.StressConfig("ParallelOld", 2*simtime.Hour)
	cfg.Costs = costs
	cfg.Machine = m
	cfg.Seed = 42
	res, err := cassandra.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Log.Pauses() {
		if e.Kind == gclog.PauseFull {
			if s := e.Duration.Seconds(); s > fullMax {
				fullMax = s
			}
		} else if s := e.Duration.Seconds(); s > youngMax {
			youngMax = s
		}
	}
	return youngMax, fullMax
}

// g1ExecRatio runs xalan with forced system GCs under G1 and ParallelOld
// and returns G1's total over ParallelOld's.
func g1ExecRatio(t *testing.T, costs *gcmodel.Costs) float64 {
	t.Helper()
	bench, err := dacapo.ByName("xalan")
	if err != nil {
		t.Fatal(err)
	}
	run := func(gc string) float64 {
		cfg := dacapo.BaselineConfig(bench)
		cfg.CollectorName = gc
		cfg.Costs = costs
		cfg.Seed = 42
		res, err := dacapo.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Total.Seconds()
	}
	return run("G1") / run("ParallelOld")
}
