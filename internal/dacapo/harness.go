package dacapo

import (
	"errors"
	"fmt"
	"math"

	"jvmgc/internal/collector"
	"jvmgc/internal/gclog"
	"jvmgc/internal/gcmodel"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/xrand"
)

// ErrCrashed is returned when a benchmark from the crashing trio is run,
// mirroring the paper's "3 benchmarks crashed on every test".
var ErrCrashed = errors.New("dacapo: benchmark crashed")

// RunConfig describes one harness invocation (one JVM launch).
type RunConfig struct {
	Benchmark Benchmark
	// CollectorName is the HotSpot collector name (see collector.Names).
	CollectorName string
	Machine       *machine.Machine
	// Costs overrides the collector cost model (ablation studies); nil
	// selects the calibrated defaults.
	Costs *gcmodel.Costs
	// Heap and Young set the fixed heap geometry (-Xms=-Xmx, -Xmn).
	Heap  machine.Bytes
	Young machine.Bytes
	// YoungExplicit marks -Xmn as explicitly set (disables G1 adaptive
	// young sizing). The paper's baseline uses ergonomic defaults.
	YoungExplicit bool
	// TLAB mirrors -XX:+/-UseTLAB.
	TLAB bool
	// Iterations is the number of benchmark iterations (paper: 10).
	Iterations int
	// SystemGC forces a full collection between iterations (DaCapo's
	// default behaviour).
	SystemGC bool
	// WarmupIterations marks how many leading iterations are warm-up
	// rounds (paper: all but the last; noise modelling uses the first 4).
	WarmupIterations int
	// Recorder, when non-nil, receives the run's flight-recorder stream:
	// GC span trees, heap/safepoint time series, and per-iteration spans
	// on the core track. Nil disables all telemetry at zero cost.
	Recorder *telemetry.Recorder
	// SizeFactor scales the benchmark's input size (DaCapo's
	// small/default/large inputs): allocation volume and live sets scale
	// proportionally while the iteration's wall time stays put. The
	// paper's small-heap sweeps (Table 3's lower block) are only
	// consistent with a reduced input; 1.0 (or 0) means the default
	// large input used everywhere else.
	SizeFactor float64
	// Seed drives all randomness of the run.
	Seed uint64
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Machine == nil {
		c.Machine = machine.New(machine.PaperTestbed())
	}
	if c.CollectorName == "" {
		c.CollectorName = "ParallelOld"
	}
	if c.Heap <= 0 {
		c.Heap = BaselineHeap
	}
	if c.Young <= 0 {
		c.Young = BaselineYoung
	}
	if c.Iterations <= 0 {
		c.Iterations = 10
	}
	if c.WarmupIterations <= 0 {
		c.WarmupIterations = 4
	}
	if c.SizeFactor <= 0 {
		c.SizeFactor = 1
	}
	return c
}

// Baseline geometry: the paper's default Java configuration on the
// testbed (§3.1): ~16 GB heap, ~5.6 GB young generation, TLAB enabled.
const (
	BaselineHeap  = 16 * machine.GB
	BaselineYoung = 5734 * machine.MB // ~5.6 GB
)

// BaselineConfig returns the paper's baseline run configuration for a
// benchmark.
func BaselineConfig(b Benchmark) RunConfig {
	return RunConfig{
		Benchmark:     b,
		CollectorName: "ParallelOld",
		Heap:          BaselineHeap,
		Young:         BaselineYoung,
		TLAB:          true,
		Iterations:    10,
		SystemGC:      true,
	}
}

// Result is the outcome of one harness run.
type Result struct {
	// Iterations holds each iteration's wall-clock duration, including
	// the forced system GC at its start when enabled (DaCapo's timing
	// brackets the whole round).
	Iterations []simtime.Duration
	// Total is the summed duration of all iterations.
	Total simtime.Duration
	// Log is the JVM's GC log for the whole run.
	Log *gclog.Log
	// FinalHeapUsed is the heap occupancy at run end.
	FinalHeapUsed machine.Bytes
	// OutOfMemory marks runs whose live data outgrew the heap (a real
	// JVM would have died with OutOfMemoryError mid-run).
	OutOfMemory bool
}

// Final returns the last (measured, non-warm-up) iteration duration.
func (r Result) Final() simtime.Duration {
	if len(r.Iterations) == 0 {
		return 0
	}
	return r.Iterations[len(r.Iterations)-1]
}

// Run executes one benchmark under one JVM configuration and returns the
// per-iteration timings and the GC log. It returns ErrCrashed for the
// three benchmarks the paper could never run.
func Run(cfg RunConfig) (Result, error) {
	cfg = cfg.withDefaults()
	b := cfg.Benchmark
	if err := b.Validate(); err != nil {
		return Result{}, err
	}
	if b.Crashes {
		return Result{}, fmt.Errorf("%w: %s", ErrCrashed, b.Name)
	}
	colCfg := collector.Config{Machine: cfg.Machine}
	if cfg.Costs != nil {
		colCfg.Costs = *cfg.Costs
	}
	col, err := collector.New(cfg.CollectorName, colCfg)
	if err != nil {
		return Result{}, err
	}

	rng := xrand.New(cfg.Seed).SplitLabeled("dacapo/" + b.Name + "/" + cfg.CollectorName)
	runFactor := rng.Jitter(1, b.RunNoise)

	tlab := heapmodel.DefaultTLAB()
	tlab.Enabled = cfg.TLAB

	w := jvm.Workload{
		Threads:   b.Threads(cfg.Machine.Topo.Cores()),
		AllocRate: b.AllocRate * runFactor * cfg.SizeFactor,
		Profile:   b.Profile(),
		TLABWaste: b.TLABWaste,
	}
	j := jvm.New(jvm.Config{
		Machine:       cfg.Machine,
		Collector:     col,
		Geometry:      heapmodel.Geometry{Heap: cfg.Heap, Young: cfg.Young, SurvivorRatio: heapmodel.DefaultSurvivorRatio},
		YoungExplicit: cfg.YoungExplicit,
		TLAB:          tlab,
		Recorder:      cfg.Recorder,
		Seed:          rng.Uint64(),
	}, w)

	if b.PersistentLive > 0 {
		j.AddPinned(machine.Bytes(float64(b.PersistentLive) * cfg.SizeFactor))
	}

	res := Result{Log: j.Log()}
	res.Iterations = make([]simtime.Duration, 0, cfg.Iterations)
	for it := 0; it < cfg.Iterations; it++ {
		start := j.Now()
		if cfg.SystemGC && it > 0 {
			j.SystemGC()
			j.DrainPause()
		}
		work := b.IterationSeconds / runFactor
		noise := b.IterNoise
		if it < cfg.WarmupIterations {
			noise = combineNoise(b.IterNoise, b.WarmupNoise)
		}
		work = rng.Jitter(work, noise*1.73) // uniform jitter with matching stddev
		if work < 0.01 {
			work = 0.01
		}
		j.RunUntilProgress(work)
		j.DrainPause()
		j.ReleaseLongLived(1.0)
		if !b.MediumPersists {
			// Teardown frees most of the iteration's working structures;
			// shared caches and pre-built state for the next round keep a
			// tail alive, which is what a forced full collection then
			// traverses.
			j.ReleaseMediumLived(0.7)
		}
		d := j.Now().Sub(start)
		res.Iterations = append(res.Iterations, d)
		if cfg.Recorder != nil {
			name := fmt.Sprintf("iteration %d", it+1)
			cfg.Recorder.Span(telemetry.TrackCore, name, start, d, 0,
				telemetry.Str("benchmark", b.Name),
				telemetry.Num("warmup", boolNum(it < cfg.WarmupIterations)),
			)
			cfg.Recorder.Metrics().Add("dacapo.iterations", 1)
		}
	}
	for _, d := range res.Iterations {
		res.Total += d
	}
	res.FinalHeapUsed = j.Heap().HeapUsed()
	_, _, res.OutOfMemory = j.OutOfMemory()
	return res, nil
}

// combineNoise combines independent relative noises in quadrature.
func combineNoise(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}

// boolNum renders a boolean as a numeric span attribute.
func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
