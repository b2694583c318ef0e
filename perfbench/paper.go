package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/core"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/ycsb"
)

// The paper workload reproduces the whole evaluation, as cmd/paper does:
// a Lab at the paper's dimensions, RunAll on two sweep workers, Render.
// One evaluation is its unit of work.

// goldenReport is the repository's pinned rendering of the seed-42
// evaluation; a run at goldenSeed must reproduce it byte for byte.
const (
	goldenReport = "internal/core/testdata/report.golden"
	goldenSeed   = 42
	paperWorkers = 2
)

func newPaperLab(seed uint64, workers int) *core.Lab {
	l := core.NewLab(seed)
	l.Parallelism = workers
	return l
}

// paperCheck validates rendered evaluations: every evaluation of one run
// must render the same bytes, and the seed-42 rendering must match the
// golden file.
type paperCheck struct {
	first  [32]byte
	seen   bool
	golden *[32]byte
}

func newPaperCheck(seed uint64) (*paperCheck, error) {
	c := &paperCheck{}
	if seed == goldenSeed {
		b, err := os.ReadFile(goldenReport)
		if err != nil {
			return nil, fmt.Errorf("read golden report: %w", err)
		}
		sum := sha256.Sum256(b)
		c.golden = &sum
	}
	return c, nil
}

func (c *paperCheck) check(o *outcome, text string) {
	sum := sha256.Sum256([]byte(text))
	if c.golden != nil && sum != *c.golden {
		o.fail(1, "paper: seed-%d evaluation differs from %s", goldenSeed, goldenReport)
		return
	}
	if !c.seen {
		c.first, c.seen = sum, true
	} else if sum != c.first {
		o.fail(1, "paper: evaluation rendered different bytes on a repeat run")
	}
}

func runPaper(p params) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	check, err := newPaperCheck(p.seed)
	if err != nil {
		return nil, err
	}
	if p.traced {
		return o, tracedPaper(p, o, check)
	}
	var lab *core.Lab
	setup := newSetupClock(func() { lab = newPaperLab(p.seed, paperWorkers) })
	var units unitCosts
	heap := watchHeap()
	start := time.Now()
	for len(units) == 0 || time.Since(start) < p.budget {
		u := readUsage()
		rep, err := lab.RunAll()
		text := ""
		if err == nil {
			text = rep.Render()
		}
		units = append(units, u.since())
		o.attempted++
		if err != nil {
			o.fail(1, "paper: RunAll: %v", err)
		} else {
			check.check(o, text)
		}
		setup.read()
	}
	o.values["peak_heap_mb"] = heap.end()
	o.values["setup_s"] = setup.median()
	units.report(o.values)
	fmt.Printf("# paper: %d evaluations, median %.3f s each\n", len(units), o.values["wall_s"])
	return o, nil
}

// tracedPaper runs cycles of three steps until the budget is spent and
// reports the median of each per-layer metric over the cycles:
//
//  1. RunAll and Render on one worker, untraced: the reference bytes and
//     the untraced wall time of the sequential evaluation;
//  2. the same evaluation through the calls RunAll makes, one span around
//     each call into a layer, checked byte for byte against step 1;
//  3. ClientLatencyStudyAll on two workers, checked against step 2, for
//     the sweep's speed-up over the sequential client study.
//
// Steps 1 and 2 swap places in every other cycle.
func tracedPaper(p params, o *outcome, check *paperCheck) error {
	var cycles []map[string]float64
	var spans []span
	start := time.Now()
	for len(cycles) == 0 || time.Since(start) < p.budget {
		ref := newPaperLab(p.seed, 1)
		var want, got string
		var untraced time.Duration
		var rt0, rt1 runtimeReading
		runUntraced := func() error {
			rt0 = readRuntime()
			u := readUsage()
			rep, err := ref.RunAll()
			if err != nil {
				return fmt.Errorf("RunAll: %w", err)
			}
			want = rep.Render()
			untraced = u.since().wall
			rt1 = readRuntime()
			return nil
		}
		led := newLedger()
		var root span
		var counts paperCounts
		runTraced := func() (err error) {
			root = led.begin("paper", 0, 0)
			got, counts, err = paperLayers(led, root.ID, ref)
			root = led.end(root)
			return err
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
		o.attempted += 2
		check.check(o, want)
		if got != want {
			o.fail(1, "paper: the traced evaluation rendered different bytes from RunAll")
		}

		par := newPaperLab(p.seed, paperWorkers)
		t := time.Now()
		exps, err := par.ClientLatencyStudyAll()
		if err != nil {
			return fmt.Errorf("ClientLatencyStudyAll: %w", err)
		}
		parallel := time.Since(t)
		o.attempted++
		if !sameClientStudy(exps, counts.client) {
			o.fail(1, "paper: the two-worker client study differs from the sequential one")
		}

		spans = led.snapshot()
		self := selfTimes(spans)
		by := selfByName(spans, self)
		gcFrac, gcP99 := gcShare(rt0, rt1)
		cycles = append(cycles, map[string]float64{
			"core.dacapo_s":           by["core.dacapo"],
			"core.server_s":           by["core.server"],
			"cassandra.run_s":         by["cassandra.run"],
			"ycsb.trace_s":            by["ycsb.trace"],
			"ycsb.ops":                float64(counts.ops),
			"stats.bands_s":           by["stats.bands"],
			"stats.samples":           float64(counts.samples),
			"core.render_s":           by["core.render"],
			"sweep.speedup":           float64(counts.clientTime) / float64(parallel),
			"runtime.gc_cpu_frac":     gcFrac,
			"runtime.gc_pause_p99_ms": gcP99,
			"unattributed_frac":       unattributed(spans, self),
			"trace_overhead":          float64(root.dur())/float64(untraced) - 1,
		})
	}
	medians(cycles, o.values)
	return writeSpans("paper", p.seed, spans)
}

// paperCounts is the work the traced evaluation did, and the sequential
// client study's wall time in nanoseconds.
type paperCounts struct {
	ops, samples int
	client       []core.ClientExperiment
	clientTime   int64
}

// paperLayers makes the calls RunAll makes, in its order, with a span
// around each call into a layer, and returns the rendered report. The
// client study is unrolled into the calls ClientLatencyStudy makes:
// cassandra.Run, ycsb.TransactionTrace and Trace.Bands.
func paperLayers(led *ledger, parent int64, l *core.Lab) (string, paperCounts, error) {
	var r core.Report
	var counts paperCounts
	call := func(name string, parent int64, f func() error) error {
		s := led.begin(name, parent, 0)
		err := f()
		led.end(s)
		return err
	}
	dacapo := []struct {
		what string
		f    func() error
	}{
		{"table 2", func() error { r.Stability = l.TableStability(); return nil }},
		{"figure 1a", func() (err error) { r.Fig1a, err = l.FigurePauseScatter("xalan", true); return }},
		{"figure 1b", func() (err error) { r.Fig1b, err = l.FigurePauseScatter("xalan", false); return }},
		{"figure 2a", func() (err error) { r.Fig2a, err = l.FigureIterationTimes("xalan", true); return }},
		{"figure 2b", func() (err error) { r.Fig2b, err = l.FigureIterationTimes("xalan", false); return }},
		{"table 3 (CMS)", func() (err error) {
			r.Table3CMS, err = l.TableHeapYoungSweep("h2", "CMS", core.Table3Cases())
			return
		}},
		{"table 3 (ParallelOld)", func() (err error) {
			r.Table3PO, err = l.TableHeapYoungSweep("h2", "ParallelOld", core.Table3Cases())
			return
		}},
		{"table 4", func() (err error) { r.Table4, err = l.TableTLAB(); return }},
		{"figure 3a", func() (err error) { r.Fig3a, err = l.FigureRanking(true); return }},
		{"figure 3b", func() (err error) { r.Fig3b, err = l.FigureRanking(false); return }},
	}
	for _, d := range dacapo {
		if err := call("core.dacapo", parent, d.f); err != nil {
			return "", counts, fmt.Errorf("%s: %w", d.what, err)
		}
	}
	if err := call("core.server", parent, func() (err error) { r.Server, err = l.ServerPauseStudy(); return }); err != nil {
		return "", counts, fmt.Errorf("server study: %w", err)
	}
	client := led.begin("core.client", parent, 0)
	for _, gc := range core.MainGCNames() {
		exp, err := clientLayers(led, client.ID, l, gc)
		if err != nil {
			return "", counts, fmt.Errorf("client study %s: %w", gc, err)
		}
		r.Client = append(r.Client, exp)
		counts.ops += len(exp.Trace.Ops)
		counts.samples += int(exp.Read.N + exp.Update.N)
	}
	counts.clientTime = led.end(client).dur()
	counts.client = r.Client
	var text string
	_ = call("core.render", parent, func() error { text = r.Render(); return nil })
	return text, counts, nil
}

// clientLayers is Lab.ClientLatencyStudy in exact-statistics mode, one
// span per layer call. The server configuration mirrors the Lab's §4.2
// set-up; the byte comparison with RunAll's rendering proves it does.
func clientLayers(led *ledger, parent int64, l *core.Lab, gc string) (core.ClientExperiment, error) {
	cfg := cassandra.DefaultConfig(gc, simtime.Seconds(l.ClientDuration*1.08))
	cfg.Machine = l.Machine
	cfg.WriteFraction = 0.5
	cfg.HeapPerRecord = 150
	cfg.TransientPerOp = 10 * machine.KB
	cfg.RetentionFrac = 0.10
	cfg.PreloadBytes = 4 * machine.GB
	cfg.Seed = l.Seed + 4242

	s := led.begin("cassandra.run", parent, 0)
	srv, err := cassandra.Run(cfg)
	led.end(s)
	if err != nil {
		return core.ClientExperiment{}, err
	}
	s = led.begin("ycsb.trace", parent, 0)
	trace := ycsb.TransactionTrace(srv, ycsb.TransactionConfig{
		ReadFraction: 0.5,
		OpsPerSec:    150,
		StartAfter:   srv.ReplayDuration.Seconds(),
		Seed:         l.Seed + 99,
	})
	led.end(s)
	exp := core.ClientExperiment{Collector: gc, Server: srv, Trace: trace}
	s = led.begin("stats.bands", parent, 0)
	exp.Read = trace.Bands(ycsb.Read, 0.01)
	led.end(s)
	s = led.begin("stats.bands", parent, 0)
	exp.Update = trace.Bands(ycsb.Update, 0.01)
	led.end(s)
	return exp, nil
}

// sameClientStudy reports whether two client studies agree on every
// rendered band table and every operation count.
func sameClientStudy(a, b []core.ClientExperiment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Collector != b[i].Collector || a[i].RenderBands() != b[i].RenderBands() ||
			len(a[i].Trace.Ops) != len(b[i].Trace.Ops) {
			return false
		}
	}
	return true
}
