// Package jvmgc is a laboratory for studying garbage-collector behaviour
// on multicore NUMA machines, built as a faithful reproduction of
// "A Performance Study of Java Garbage Collectors on Multicore
// Architectures" (Carpen-Amarie, Marlier, Felber, Thomas — PMAM '15).
//
// The library simulates an OpenJDK-8-style JVM — generational heap,
// TLABs, safepoints, and cost-and-policy models of the six HotSpot
// collectors (Serial, ParNew, Parallel, ParallelOld, CMS, G1) — executing
// configurable workloads on an explicit machine topology. On top of the
// simulator sit the paper's two experimental environments: a synthetic
// DaCapo-2009 benchmark suite and a Cassandra-style storage node driven
// by a YCSB-style client.
//
// Entry levels:
//
//   - Simulate runs one JVM against one workload and returns its GC log —
//     the quickstart path. SimulateTrace does the same driven by a
//     recorded allocation profile.
//   - RunBenchmark and RunClientServer run the paper's two environments
//     with full control over collector, heap geometry and TLABs;
//     RunCluster extends the latter to an N-node replicated ring.
//   - Advise sweeps collectors and young-generation sizes against a
//     pause SLO and ranks the configurations.
//   - ReproducePaper regenerates every table and figure of the paper's
//     evaluation in one call.
//
// Everything is deterministic in the provided seed.
package jvmgc

import (
	"fmt"
	"io"
	"time"

	"jvmgc/internal/advisor"
	"jvmgc/internal/cassandra"
	"jvmgc/internal/cluster"
	"jvmgc/internal/collector"
	"jvmgc/internal/core"
	"jvmgc/internal/dacapo"
	"jvmgc/internal/demography"
	"jvmgc/internal/gclog"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/traceload"
	"jvmgc/internal/ycsb"
)

// Recorder is the JFR-style flight recorder (internal/telemetry): attach
// one via SimulationConfig.Recorder to capture per-phase GC span trees,
// heap/safepoint time series and counters, then export them with
// WriteChromeTrace, WritePrometheus or WriteUnifiedLog. A nil recorder
// disables all telemetry at zero cost.
type Recorder = telemetry.Recorder

// NewRecorder returns a flight recorder sampling the time series every
// sampleInterval of simulated time (0 disables sampling, spans and
// counters still record).
func NewRecorder(sampleInterval time.Duration) *Recorder {
	return telemetry.New(telemetry.Config{SampleInterval: simtime.FromStd(sampleInterval)})
}

// Collectors returns the supported collector names in the paper's order:
// Serial, ParNew, Parallel, ParallelOld, CMS, G1.
func Collectors() []string { return collector.Names() }

// Benchmarks returns the names of the 14 modelled DaCapo benchmarks.
func Benchmarks() []string { return dacapo.Names() }

// StableBenchmarks returns the paper's stable subset (Table 2).
func StableBenchmarks() []string {
	var out []string
	for _, b := range dacapo.StableSubset() {
		out = append(out, b.Name)
	}
	return out
}

// Pause is one stop-the-world event of a simulation.
type Pause struct {
	// At is the instant the pause started, from simulation start.
	At time.Duration
	// Duration is the pause length.
	Duration time.Duration
	// Kind is a log-friendly label ("GC (young)", "Full GC", ...).
	Kind string
	// Cause is the HotSpot-style GC cause.
	Cause string
	// Full marks full collections.
	Full bool
}

// SimulationConfig configures a bare JVM simulation.
type SimulationConfig struct {
	// Collector is a name from Collectors. Default "ParallelOld".
	Collector string
	// HeapBytes and YoungBytes set the fixed heap geometry. Defaults:
	// 16 GiB heap, young sized by the collector's ergonomics.
	HeapBytes  int64
	YoungBytes int64
	// TLABEnabled mirrors -XX:+/-UseTLAB. Default true (set
	// DisableTLAB to turn off).
	DisableTLAB bool
	// Threads is the mutator thread count. Default 48 (the paper's
	// testbed width).
	Threads int
	// AllocBytesPerSec is the workload's allocation rate. Default
	// 200 MB/s.
	AllocBytesPerSec float64
	// ShortLivedFraction (mean lifetime ShortLifetime) and
	// MediumLivedFraction (MediumLifetime) shape object demographics;
	// the remainder is long-lived. Defaults: 0.90 @ 200 ms and 0.07 @ 5 s.
	ShortLivedFraction  float64
	ShortLifetime       time.Duration
	MediumLivedFraction float64
	MediumLifetime      time.Duration
	// Recorder, when non-nil, receives the run's flight-recorder stream
	// (GC span trees, time series, counters). Attaching one never changes
	// simulation results: emission is read-only.
	Recorder *Recorder
	// Seed drives all randomness.
	Seed uint64
}

// SafepointSummary is the run's time-to-safepoint distribution — the
// -XX:+PrintSafepointStatistics picture.
type SafepointSummary struct {
	Count            int
	Total, Max, Mean time.Duration
	P50, P95, P99    time.Duration
}

// SimulationResult is the outcome of Simulate.
type SimulationResult struct {
	Pauses       []Pause
	TotalPause   time.Duration
	MaxPause     time.Duration
	FullGCs      int
	HeapUsed     int64
	OldLiveBytes int64
	// Safepoints is the full TTSP distribution of the run.
	Safepoints SafepointSummary
	// LogText is the HotSpot-style rendering of the GC log.
	LogText string
}

func (c SimulationConfig) build() (jvm.Config, jvm.Workload, error) {
	m := machine.New(machine.PaperTestbed())
	name := c.Collector
	if name == "" {
		name = "ParallelOld"
	}
	col, err := collector.New(name, collector.Config{Machine: m})
	if err != nil {
		return jvm.Config{}, jvm.Workload{}, err
	}
	heap := machine.Bytes(c.HeapBytes)
	if heap <= 0 {
		heap = 16 * machine.GB
	}
	young := machine.Bytes(c.YoungBytes)
	youngExplicit := young > 0
	if young <= 0 {
		young = heap / 3 // HotSpot NewRatio=2 ergonomics
	}
	threads := c.Threads
	if threads <= 0 {
		threads = 48
	}
	alloc := c.AllocBytesPerSec
	if alloc <= 0 {
		alloc = 200e6
	}
	profile := demography.Profile{
		ShortFrac:  c.ShortLivedFraction,
		MeanShort:  simtime.FromStd(c.ShortLifetime),
		MediumFrac: c.MediumLivedFraction,
		MeanMedium: simtime.FromStd(c.MediumLifetime),
	}
	if profile.ShortFrac == 0 && profile.MediumFrac == 0 {
		profile = demography.Profile{
			ShortFrac: 0.90, MeanShort: 200 * simtime.Millisecond,
			MediumFrac: 0.07, MeanMedium: 5 * simtime.Second,
		}
	}
	if err := profile.Validate(); err != nil {
		return jvm.Config{}, jvm.Workload{}, err
	}
	tlab := heapmodel.DefaultTLAB()
	tlab.Enabled = !c.DisableTLAB
	cfg := jvm.Config{
		Machine:       m,
		Collector:     col,
		Geometry:      heapmodel.Geometry{Heap: heap, Young: young, SurvivorRatio: heapmodel.DefaultSurvivorRatio},
		YoungExplicit: youngExplicit,
		TLAB:          tlab,
		Recorder:      c.Recorder,
		Seed:          c.Seed,
	}
	w := jvm.Workload{Threads: threads, AllocRate: alloc, Profile: profile}
	return cfg, w, nil
}

// Simulate runs one JVM under the given configuration for the given
// simulated duration and returns its garbage-collection activity.
func Simulate(cfg SimulationConfig, duration time.Duration) (*SimulationResult, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("jvmgc: non-positive duration %v", duration)
	}
	jcfg, w, err := cfg.build()
	if err != nil {
		return nil, err
	}
	j := jvm.New(jcfg, w)
	j.RunFor(simtime.FromStd(duration))
	return summarize(j), nil
}

func summarize(j *jvm.JVM) *SimulationResult {
	log := j.Log()
	sp := j.SafepointDistribution()
	qs := sp.Percentiles(50, 95, 99)
	res := &SimulationResult{
		TotalPause:   log.TotalPause().Std(),
		MaxPause:     log.MaxPause().Std(),
		HeapUsed:     int64(j.Heap().HeapUsed()),
		OldLiveBytes: int64(j.OldLive()),
		Safepoints: SafepointSummary{
			Count: sp.Count(),
			Total: sp.Total().Std(),
			Max:   sp.Max().Std(),
			Mean:  sp.Mean().Std(),
			P50:   qs[0].Std(),
			P95:   qs[1].Std(),
			P99:   qs[2].Std(),
		},
		LogText: log.String(),
	}
	res.Pauses, res.FullGCs = pauses(log)
	return res
}

// pauses converts the log's stop-the-world events to Pauses and counts
// the full collections among them. A log without pauses gives nil.
func pauses(log *gclog.Log) ([]Pause, int) {
	n, full := log.CountPauses()
	if n == 0 {
		return nil, 0
	}
	out := make([]Pause, 0, n)
	for _, c := range log.Chunks() {
		for i := range c {
			e := &c[i]
			if !e.Kind.IsPause() {
				continue
			}
			out = append(out, Pause{
				At:       time.Duration(e.Start),
				Duration: e.Duration.Std(),
				Kind:     e.Kind.String(),
				Cause:    e.Cause,
				Full:     e.Kind == gclog.PauseFull,
			})
		}
	}
	return out, full
}

// BenchmarkOptions configures a DaCapo-style benchmark run.
type BenchmarkOptions struct {
	// Benchmark is a name from Benchmarks. Required.
	Benchmark string
	// Collector is a name from Collectors. Default "ParallelOld".
	Collector string
	// HeapBytes / YoungBytes override the paper's baseline (16 GiB /
	// ~5.6 GiB).
	HeapBytes  int64
	YoungBytes int64
	// DisableTLAB turns TLABs off.
	DisableTLAB bool
	// Iterations is the iteration count (default 10).
	Iterations int
	// NoSystemGC disables the forced full collection between iterations.
	NoSystemGC bool
	// Recorder, when non-nil, receives the run's flight-recorder stream,
	// as SimulationConfig.Recorder does; the harness adds one span per
	// iteration. Attaching one never changes the result.
	Recorder *Recorder
	Seed     uint64
}

// BenchmarkResult is the outcome of RunBenchmark.
type BenchmarkResult struct {
	// IterationSeconds holds each iteration's duration.
	IterationSeconds []float64
	TotalSeconds     float64
	Pauses           []Pause
	TotalPause       time.Duration
	MaxPause         time.Duration
	FullGCs          int
}

// RunBenchmark executes one benchmark run under the given options.
func RunBenchmark(opts BenchmarkOptions) (*BenchmarkResult, error) {
	b, err := dacapo.ByName(opts.Benchmark)
	if err != nil {
		return nil, err
	}
	cfg := dacapo.BaselineConfig(b)
	if opts.Collector != "" {
		cfg.CollectorName = opts.Collector
	}
	if opts.HeapBytes > 0 {
		cfg.Heap = machine.Bytes(opts.HeapBytes)
	}
	if opts.YoungBytes > 0 {
		cfg.Young = machine.Bytes(opts.YoungBytes)
		cfg.YoungExplicit = true
	}
	cfg.TLAB = !opts.DisableTLAB
	if opts.Iterations > 0 {
		cfg.Iterations = opts.Iterations
	}
	cfg.SystemGC = !opts.NoSystemGC
	cfg.Recorder = opts.Recorder
	cfg.Seed = opts.Seed
	res, err := dacapo.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &BenchmarkResult{
		TotalSeconds: res.Total.Seconds(),
		TotalPause:   res.Log.TotalPause().Std(),
		MaxPause:     res.Log.MaxPause().Std(),
	}
	for _, d := range res.Iterations {
		out.IterationSeconds = append(out.IterationSeconds, d.Seconds())
	}
	out.Pauses, out.FullGCs = pauses(res.Log)
	return out, nil
}

// ClientServerOptions configures the Cassandra+YCSB experiment.
type ClientServerOptions struct {
	// Collector is a name from Collectors (the paper studies ParallelOld,
	// CMS and G1 here). Default "ParallelOld".
	Collector string
	// Stress selects the paper's stress configuration (nothing is ever
	// flushed; the database is pre-loaded and replayed at startup).
	Stress bool
	// Duration is the client-driven phase length (default 2 h).
	Duration time.Duration
	// ClientOpsPerSec is the latency-measuring client's arrival rate
	// (default 150/s, giving >1 M points over a 2 h run).
	ClientOpsPerSec float64
	// Workload selects a YCSB core workload by letter ('A'..'F'); zero
	// runs the paper's custom 50/50 read-update mix (equivalent to 'A').
	Workload byte
	Seed     uint64
}

// OpLatency is one client operation's observed latency.
type OpLatency struct {
	// Read is true for reads, false for updates.
	Read bool
	// AtSeconds is the completion time since experiment start.
	AtSeconds float64
	LatencyMS float64
	// ShadowedByGC marks operations that overlapped a stop-the-world
	// pause.
	ShadowedByGC bool
}

// LatencyBands summarizes one operation type as in the paper's
// Tables 5–7.
type LatencyBands struct {
	N             int64
	AvgMS         float64
	MaxMS         float64
	MinMS         float64
	NormalReqsPct float64 // requests within 0.5x–1.5x of the average
	NormalGCsPct  float64
	Exceedance    []BandLine // >2x, >4x, ... AVG
}

// BandLine is one exceedance band row.
type BandLine struct {
	Label   string
	ReqsPct float64
	GCsPct  float64
}

// ClientServerResult is the outcome of RunClientServer.
type ClientServerResult struct {
	ServerPauses []Pause
	MaxPause     time.Duration
	FullGCs      int
	// ReplaySeconds is the startup commitlog replay time (stress mode).
	ReplaySeconds float64
	TotalSeconds  float64
	Ops           []OpLatency
	Read          LatencyBands
	Update        LatencyBands
}

// RunClientServer runs the §4 experiment: a Cassandra-style node under
// the chosen collector, with a YCSB-style client measuring per-operation
// latency.
func RunClientServer(opts ClientServerOptions) (*ClientServerResult, error) {
	name := opts.Collector
	if name == "" {
		name = "ParallelOld"
	}
	d := simtime.FromStd(opts.Duration)
	if opts.Duration <= 0 {
		d = 2 * simtime.Hour
	}
	var cfg cassandra.Config
	if opts.Stress {
		cfg = cassandra.StressConfig(name, d)
	} else {
		// The paper's §4.2 client experiment: a production-configured
		// node (flushing enabled, modest on-heap footprint per write)
		// serving the 50/50 read-update workload on a loaded database.
		cfg = cassandra.DefaultConfig(name, d)
		cfg.WriteFraction = 0.5
		cfg.HeapPerRecord = 150
		cfg.TransientPerOp = 10 * machine.KB
		cfg.RetentionFrac = 0.10
		cfg.PreloadBytes = 4 * machine.GB
	}
	cfg.Seed = opts.Seed
	srv, err := cassandra.Run(cfg)
	if err != nil {
		return nil, err
	}
	txn := ycsb.TransactionConfig{
		ReadFraction: 0.5,
		OpsPerSec:    opts.ClientOpsPerSec,
		StartAfter:   srv.ReplayDuration.Seconds(),
		Seed:         opts.Seed + 1,
	}
	if opts.Workload != 0 {
		txn, err = ycsb.CoreWorkload(opts.Workload).Config(txn)
		if err != nil {
			return nil, err
		}
	}
	// The trace runs inline: labd's worker pool already bounds how many
	// of these run at once.
	trace := ycsb.TransactionTrace(srv, txn)
	bands := trace.BandsByType(0.01)
	out := &ClientServerResult{
		MaxPause:      srv.Log.MaxPause().Std(),
		ReplaySeconds: srv.ReplayDuration.Seconds(),
		TotalSeconds:  srv.TotalDuration.Seconds(),
		Read:          toBands(bands[ycsb.Read]),
		Update:        toBands(bands[ycsb.Update]),
	}
	out.ServerPauses, out.FullGCs = pauses(srv.Log)
	if len(trace.Ops) > 0 {
		out.Ops = make([]OpLatency, len(trace.Ops))
	}
	for i, op := range trace.Ops {
		out.Ops[i] = OpLatency{
			Read:         op.Type == ycsb.Read,
			AtSeconds:    op.Completed,
			LatencyMS:    op.LatencyMS,
			ShadowedByGC: op.Shadowed,
		}
	}
	return out, nil
}

func toBands(r stats.BandReport) LatencyBands {
	out := LatencyBands{
		N: r.N, AvgMS: r.AvgMS, MaxMS: r.MaxMS, MinMS: r.MinMS,
		NormalReqsPct: r.Normal.Reqs, NormalGCsPct: r.Normal.GCs,
	}
	for _, b := range r.Above {
		out.Exceedance = append(out.Exceedance, BandLine{Label: b.Label, ReqsPct: b.Reqs, GCsPct: b.GCs})
	}
	return out
}

// PaperReport is the complete reproduced evaluation (every table and
// figure); see the core package's Report for the full structure.
type PaperReport = core.Report

// ReproducePaper regenerates the paper's whole evaluation. quick shrinks
// repetitions and the client phase for smoke runs; the full version runs
// the paper's dimensions (still seconds of wall time — the laboratory is
// a simulator).
func ReproducePaper(seed uint64, quick bool) (PaperReport, error) {
	lab := core.NewLab(seed)
	if quick {
		lab = core.QuickLab(seed)
	}
	return lab.RunAll()
}

// ClusterOptions configures the multi-node ring experiment (the
// distributed extension of the paper's §4).
type ClusterOptions struct {
	// Collector is the per-node GC. Default "ParallelOld".
	Collector string
	// Nodes and ReplicationFactor shape the ring (defaults 3 and 3).
	Nodes             int
	ReplicationFactor int
	// Stress selects the saturating node configuration.
	Stress bool
	// Duration is the client-driven phase length per node (default 2 h).
	Duration time.Duration
	Seed     uint64
}

// ClusterResult reports the ring experiment per consistency level.
type ClusterResult struct {
	// One/Quorum/All summarize the client latency at each consistency
	// level over the same run.
	One, Quorum, All LatencyBands
	// Suspicions counts failure-detector trips across the ring.
	Suspicions int
}

// RunCluster runs an N-node ring of simulated storage nodes under one
// collector and measures client latency at consistency levels ONE,
// QUORUM and ALL — quantifying how much of the GC pause problem
// replication hides.
func RunCluster(opts ClusterOptions) (*ClusterResult, error) {
	name := opts.Collector
	if name == "" {
		name = "ParallelOld"
	}
	d := simtime.FromStd(opts.Duration)
	if opts.Duration <= 0 {
		d = 2 * simtime.Hour
	}
	var node cassandra.Config
	if opts.Stress {
		node = cassandra.StressConfig(name, d)
	} else {
		node = cassandra.DefaultConfig(name, d)
		node.WriteFraction = 0.5
	}
	res, err := cluster.Run(cluster.Config{
		Nodes:             opts.Nodes,
		ReplicationFactor: opts.ReplicationFactor,
		Node:              node,
		Seed:              opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &ClusterResult{
		One:        toBands(res.PerLevel[cluster.One]),
		Quorum:     toBands(res.PerLevel[cluster.Quorum]),
		All:        toBands(res.PerLevel[cluster.All]),
		Suspicions: res.SuspicionsTotal,
	}, nil
}

// SimulateTrace runs one JVM driven by a recorded allocation trace (CSV:
// seconds,alloc_bytes_per_sec — see internal/traceload) instead of the
// config's constant allocation rate. The workload's demographics, thread
// count and heap geometry still come from cfg.
func SimulateTrace(cfg SimulationConfig, trace io.Reader) (*SimulationResult, error) {
	tr, err := traceload.ParseCSV(trace)
	if err != nil {
		return nil, err
	}
	jcfg, w, err := cfg.build()
	if err != nil {
		return nil, err
	}
	j := jvm.New(jcfg, w)
	if err := traceload.Replay(j, tr); err != nil {
		return nil, err
	}
	return summarize(j), nil
}

// AdviseOptions asks the tuning advisor for the best collector and
// young-generation size for a workload under a pause SLO.
type AdviseOptions struct {
	// HeapBytes is the fixed heap size to tune within. Required.
	HeapBytes int64
	// Workload shape (same fields as SimulationConfig).
	Threads             int
	AllocBytesPerSec    float64
	ShortLivedFraction  float64
	ShortLifetime       time.Duration
	MediumLivedFraction float64
	MediumLifetime      time.Duration
	// SLO bounds: worst pause and total-pause fraction (0 = unbounded).
	MaxPause         time.Duration
	MaxPauseFraction float64
	// EvaluationWindow is the simulated time each candidate runs
	// (default 5 minutes).
	EvaluationWindow time.Duration
	Seed             uint64
	// Parallelism bounds the worker pool evaluating candidates
	// concurrently (0 = GOMAXPROCS). The ranking is deterministic at any
	// setting.
	Parallelism int
}

// Advice is one evaluated configuration, best first.
type Advice struct {
	Collector     string
	YoungBytes    int64
	WorstPause    time.Duration
	PauseFraction float64
	FullGCs       int
	OutOfMemory   bool
	MeetsSLO      bool
}

// Advise sweeps the six collectors across candidate young-generation
// sizes in simulation and returns the configurations ranked against the
// SLO (compliant candidates first, by throughput).
func Advise(opts AdviseOptions) ([]Advice, error) {
	profile := demography.Profile{
		ShortFrac:  opts.ShortLivedFraction,
		MeanShort:  simtime.FromStd(opts.ShortLifetime),
		MediumFrac: opts.MediumLivedFraction,
		MeanMedium: simtime.FromStd(opts.MediumLifetime),
	}
	if profile.ShortFrac == 0 && profile.MediumFrac == 0 {
		profile = demography.Profile{
			ShortFrac: 0.90, MeanShort: 200 * simtime.Millisecond,
			MediumFrac: 0.07, MeanMedium: 5 * simtime.Second,
		}
	}
	rec, err := advisor.Advise(advisor.Request{
		Heap: machine.Bytes(opts.HeapBytes),
		Workload: advisor.Workload{
			Threads:   opts.Threads,
			AllocRate: opts.AllocBytesPerSec,
			Profile:   profile,
		},
		SLO: advisor.SLO{
			MaxPause:         simtime.FromStd(opts.MaxPause),
			MaxPauseFraction: opts.MaxPauseFraction,
		},
		Duration:    simtime.FromStd(opts.EvaluationWindow),
		Seed:        opts.Seed,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	out := make([]Advice, 0, len(rec.Candidates))
	for _, c := range rec.Candidates {
		out = append(out, Advice{
			Collector:     c.Collector,
			YoungBytes:    int64(c.Young),
			WorstPause:    c.WorstPause.Std(),
			PauseFraction: c.PauseFraction,
			FullGCs:       c.FullGCs,
			OutOfMemory:   c.OutOfMemory,
			MeetsSLO:      c.MeetsSLO,
		})
	}
	return out, nil
}
