package main

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"time"

	"jvmgc"
	"jvmgc/internal/collector"
	"jvmgc/internal/demography"
	"jvmgc/internal/gclog"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// The jvm-hours workload calls jvmgc.Simulate, the entry point behind
// gcsim, the quickstart and every labd simulate job, on one goroutine over
// a seeded run list. One pass over the list is its unit of work.

func runJVMHours(p params) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	if p.traced {
		return o, tracedJVMHours(p, o, jvmRunList(p.seed))
	}
	var runs []jvmRun
	setup := newSetupClock(func() { runs = jvmRunList(p.seed) })
	// Each run is timed on its own in every pass. A pass's wall and CPU
	// time are reported as the sum over runs of each run's median across
	// passes, which keeps a slow moment of the host out of every run but
	// the one it hit.
	walls, cpus := make([][]float64, len(runs)), make([][]float64, len(runs))
	var allocs []float64
	var first []*jvmgc.SimulationResult
	var firstPrints []uint64
	heap := watchHeap()
	start := time.Now()
	for len(allocs) == 0 || time.Since(start) < p.budget {
		results, errs := make([]*jvmgc.SimulationResult, len(runs)), make([]error, len(runs))
		pass := readUsage()
		for i, r := range runs {
			t, c := time.Now(), processCPU()
			results[i], errs[i] = jvmgc.Simulate(r.config(), r.Length)
			walls[i] = append(walls[i], time.Since(t).Seconds())
			cpus[i] = append(cpus[i], (processCPU() - c).Seconds())
		}
		allocs = append(allocs, float64(pass.since().alloc)/1e6)
		o.attempted += int64(len(runs))
		for i, err := range errs {
			switch {
			case err != nil:
				o.fail(1, "jvm-hours: run %d: %v", i, err)
			case first == nil:
			case fingerprint(results[i]) != firstPrints[i]:
				o.fail(1, "jvm-hours: run %d gave a different result on a repeat pass", i)
			}
		}
		if first == nil {
			first = results
			firstPrints = make([]uint64, len(runs))
			for i, res := range results {
				firstPrints[i] = fingerprint(res)
			}
		}
		setup.read()
	}
	o.values["peak_heap_mb"] = heap.end()
	o.values["setup_s"] = setup.median()
	o.values["alloc_mb"] = median(allocs)
	for i := range runs {
		o.values["wall_s"] += median(walls[i])
		o.values["cpu_s"] += median(cpus[i])
	}

	// Outside the measured phase, replay every run through the calls
	// Simulate makes, which expose what Simulate's result does not: that
	// the run reached its full length without an OutOfMemoryError.
	passes := int64(len(allocs))
	for i, r := range runs {
		res, st, err := simulateLayers(nil, 0, r)
		switch {
		case err != nil:
			o.fail(passes, "jvm-hours: run %d replay: %v", i, err)
		case !st.reached:
			o.fail(passes, "jvm-hours: run %d stopped short of %v", i, r.Length)
		case st.oom:
			o.fail(passes, "jvm-hours: run %d ran out of heap", i)
		case first[i] != nil && !reflect.DeepEqual(res, first[i]):
			o.fail(passes, "jvm-hours: run %d: Simulate's result differs from its replay", i)
		}
	}
	var hours time.Duration
	for _, r := range runs {
		hours += r.Length
	}
	fmt.Printf("# jvm-hours: %d passes of %d runs, %.0f simulated JVM-hours each, %.3f s per pass\n",
		passes, len(runs), hours.Hours(), o.values["wall_s"])
	return o, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fingerprint summarizes a result for the repeat-pass comparison without
// keeping every pass's log text.
func fingerprint(r *jvmgc.SimulationResult) uint64 {
	if r == nil {
		return 0
	}
	h := uint64(crc32.Checksum([]byte(r.LogText), castagnoli))
	for _, v := range []int64{int64(len(r.Pauses)), int64(r.TotalPause), int64(r.MaxPause),
		int64(r.FullGCs), r.HeapUsed, r.OldLiveBytes, int64(r.Safepoints.Count), int64(r.Safepoints.P99)} {
		h = (h ^ uint64(v)) * 0x100000001b3
	}
	return h
}

// tracedJVMHours runs cycles of an untraced pass through Simulate and a
// traced pass through the calls Simulate makes, in alternating order,
// until the budget is spent; every traced result must equal Simulate's.
// It reports the median of each per-layer metric over the cycles.
func tracedJVMHours(p params, o *outcome, runs []jvmRun) error {
	var cycles []map[string]float64
	var spans []span
	start := time.Now()
	for len(cycles) == 0 || time.Since(start) < p.budget {
		want := make([]*jvmgc.SimulationResult, len(runs))
		got := make([]*jvmgc.SimulationResult, len(runs))
		var untraced time.Duration
		var rt0, rt1 runtimeReading
		runUntraced := func() error {
			rt0 = readRuntime()
			u := readUsage()
			for i, r := range runs {
				res, err := jvmgc.Simulate(r.config(), r.Length)
				if err != nil {
					return fmt.Errorf("run %d: %w", i, err)
				}
				want[i] = res
			}
			untraced = u.since().wall
			rt1 = readRuntime()
			return nil
		}
		led := newLedger()
		var root span
		runTraced := func() error {
			root = led.begin("jvm-hours", 0, 0)
			for i, r := range runs {
				res, st, err := simulateLayers(led, root.ID, r)
				switch {
				case err != nil:
					return fmt.Errorf("run %d: %w", i, err)
				case !st.reached || st.oom:
					o.fail(1, "jvm-hours: run %d stopped short or ran out of heap", i)
				}
				got[i] = res
			}
			root = led.end(root)
			return nil
		}
		// Alternate which pass runs first, so that warm-up and the heap
		// the previous pass left behind favour neither.
		steps := []func() error{runUntraced, runTraced}
		if len(cycles)%2 == 1 {
			steps[0], steps[1] = steps[1], steps[0]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return err
			}
		}
		var pauses, logBytes int
		for i := range runs {
			o.attempted++
			if !reflect.DeepEqual(got[i], want[i]) {
				o.fail(1, "jvm-hours: run %d: traced result differs from Simulate's", i)
			}
			pauses += len(got[i].Pauses)
			logBytes += len(got[i].LogText)
		}

		spans = led.snapshot()
		self := selfTimes(spans)
		by := selfByName(spans, self)
		gcFrac, gcP99 := gcShare(rt0, rt1)
		cycles = append(cycles, map[string]float64{
			"jvm.run_s":               by["jvm.run"],
			"jvm.pauses":              float64(pauses),
			"gclog.render_s":          by["gclog.render"],
			"gclog.mb":                float64(logBytes) / 1e6,
			"jvmgc.summarize_s":       by["jvmgc.simulate"],
			"runtime.gc_cpu_frac":     gcFrac,
			"runtime.gc_pause_p99_ms": gcP99,
			"unattributed_frac":       unattributed(spans, self),
			"trace_overhead":          float64(root.dur())/float64(untraced) - 1,
		})
	}
	medians(cycles, o.values)
	return writeSpans("jvm-hours", p.seed, spans)
}

// simStatus is what a replayed run reveals beyond Simulate's result.
type simStatus struct {
	reached bool // the clock reached the run's full length
	oom     bool // a full collection could not fit the live data
}

// simulateLayers is jvmgc.Simulate for one run, made through the calls
// Simulate makes: the configuration build, jvm.New and RunFor (span
// jvm.run), the summary, and gclog's rendering (span gclog.render), all
// inside one jvmgc.simulate span whose self time is Simulate's own work.
// The configuration and the summary mirror Simulate's; comparing results
// with Simulate's proves they do.
func simulateLayers(led *ledger, parent int64, r jvmRun) (*jvmgc.SimulationResult, simStatus, error) {
	outer := led.begin("jvmgc.simulate", parent, 0)
	defer led.end(outer)
	m := machine.New(machine.PaperTestbed())
	col, err := collector.New(r.Collector, collector.Config{Machine: m})
	if err != nil {
		return nil, simStatus{}, err
	}
	heap := machine.Bytes(r.HeapBytes)
	tlab := heapmodel.DefaultTLAB()
	tlab.Enabled = true
	cfg := jvm.Config{
		Machine:   m,
		Collector: col,
		Geometry:  heapmodel.Geometry{Heap: heap, Young: heap / 3, SurvivorRatio: heapmodel.DefaultSurvivorRatio},
		TLAB:      tlab,
		Seed:      r.Seed,
	}
	w := jvm.Workload{
		Threads:   jvmThreads,
		AllocRate: jvmAllocBPS,
		Profile: demography.Profile{
			ShortFrac:  shortFrac,
			MeanShort:  simtime.FromStd(shortLife),
			MediumFrac: mediumFrac,
			MeanMedium: simtime.FromStd(mediumLife),
		},
	}

	run := led.begin("jvm.run", outer.ID, 0)
	j := jvm.New(cfg, w)
	deadline := j.Now().Add(simtime.FromStd(r.Length))
	j.RunFor(simtime.FromStd(r.Length))
	led.end(run)
	_, _, oom := j.OutOfMemory()
	st := simStatus{reached: j.Now() == deadline, oom: oom}

	log := j.Log()
	sp := j.SafepointDistribution()
	qs := sp.Percentiles(50, 95, 99)
	res := &jvmgc.SimulationResult{
		TotalPause:   log.TotalPause().Std(),
		MaxPause:     log.MaxPause().Std(),
		HeapUsed:     int64(j.Heap().HeapUsed()),
		OldLiveBytes: int64(j.OldLive()),
		Safepoints: jvmgc.SafepointSummary{
			Count: sp.Count(),
			Total: sp.Total().Std(),
			Max:   sp.Max().Std(),
			Mean:  sp.Mean().Std(),
			P50:   qs[0].Std(),
			P95:   qs[1].Std(),
			P99:   qs[2].Std(),
		},
	}
	render := led.begin("gclog.render", outer.ID, 0)
	res.LogText = log.String()
	led.end(render)
	for _, e := range log.Pauses() {
		res.Pauses = append(res.Pauses, jvmgc.Pause{
			At:       time.Duration(e.Start),
			Duration: e.Duration.Std(),
			Kind:     e.Kind.String(),
			Cause:    e.Cause,
			Full:     e.Kind == gclog.PauseFull,
		})
		if e.Kind == gclog.PauseFull {
			res.FullGCs++
		}
	}
	return res, st, nil
}
