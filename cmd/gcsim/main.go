// Command gcsim runs the laboratory's simulations, in three modes:
//
//	gcsim [flags]            one JVM under a synthetic allocation workload
//	gcsim dacapo [flags]     a DaCapo-style benchmark under one collector or all six
//	gcsim cassandra [flags]  the Cassandra/YCSB client-server study (§4)
//
// -collector takes any case ("g1" is G1) and sizes take the JVM's
// suffixes ("512m", "16g"). In the first two modes -trace-out and
// -metrics-out write the flight recorder's Chrome trace (for Perfetto)
// and Prometheus snapshot, and -gclog-out writes the run's GC log, the
// lines -v prints; recording never changes the results. A usage error
// exits 2, a failed run 1.
//
// Examples:
//
//	gcsim -collector CMS -heap 4g -young 1g -alloc 800m -duration 60s -v
//	gcsim dacapo -bench h2 -collector g1 -heap 8g -trace-out h2.json -gclog-out h2.gclog
//	gcsim cassandra -collector ParallelOld -stress -duration 20m -points
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"jvmgc"
	"jvmgc/internal/collector"
	"jvmgc/internal/machine"
	"jvmgc/internal/profiling"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the testable body of the command: it picks the mode by the first
// argument and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	modes := map[string]func([]string, io.Writer, io.Writer) int{"dacapo": runDacapo, "cassandra": runCassandra}
	if len(args) > 0 && modes[args[0]] != nil {
		return modes[args[0]](args[1:], stdout, stderr)
	}
	return runSimulate(args, stdout, stderr)
}

// runSimulate is bare gcsim: one JVM under a synthetic workload.
func runSimulate(args []string, stdout, stderr io.Writer) int {
	f := newModeFlags("gcsim", stderr)
	f.Usage = func() {
		fmt.Fprintln(stderr, "usage: gcsim [dacapo | cassandra] [flags]\n\nflags of bare gcsim, one JVM under a synthetic workload:")
		f.PrintDefaults()
	}
	f.jvm("ergonomics")
	alloc := sizeFlag{text: "200m", bytes: 200 << 20}
	f.Var(&alloc, "alloc", "allocation rate in bytes/second, a `size` such as 800m")
	var (
		threads    = f.Int("threads", 48, "mutator threads")
		duration   = f.Duration("duration", time.Minute, "simulated run duration")
		verbose    = f.Bool("v", false, "print the full GC log")
		asJSON     = f.Bool("json", false, "emit the result as JSON")
		trace      = f.String("trace", "", "CSV allocation trace to replay (seconds,alloc_bytes_per_sec); overrides -alloc and -duration")
		cpuprofile = f.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = f.String("memprofile", "", "write an allocation profile of the run to this file (go tool pprof)")
	)
	if !f.parse(args) {
		return 2
	}
	cfg := jvmgc.SimulationConfig{
		Collector:        *f.collector,
		HeapBytes:        f.heap.bytes,
		YoungBytes:       f.young.bytes,
		DisableTLAB:      *f.noTLAB,
		Threads:          *threads,
		AllocBytesPerSec: float64(alloc.bytes),
		Recorder:         f.recorder(),
		Seed:             *f.seed,
	}
	stopCPU, err := profiling.Start(*cpuprofile)
	if err != nil {
		return f.done(err)
	}
	res, err := simulate(cfg, *trace, *duration)
	if err == nil {
		err = f.writeExports(cfg.Recorder, func() string { return res.LogText })
	}
	stopCPU()
	if err == nil {
		err = profiling.WriteHeap(*memprofile)
	}
	if err == nil && *asJSON {
		err = writeJSON(stdout, res)
	}
	if err != nil || *asJSON {
		return f.done(err)
	}
	// With -v the summary trails the log on stdout; render it as gclog
	// comment lines so the output stays parseable (`gcsim -v | gcanalyze`).
	prefix := ""
	if *verbose {
		fmt.Fprint(stdout, res.LogText)
		prefix = "# "
	}
	fmt.Fprintf(stdout, "%scollector=%s duration=%v pauses=%d full=%d totalPause=%v maxPause=%v heapUsed=%s oldLive=%s\n",
		prefix, cfg.Collector, *duration, len(res.Pauses), res.FullGCs,
		res.TotalPause.Round(time.Microsecond), res.MaxPause.Round(time.Microsecond),
		size(res.HeapUsed), size(res.OldLiveBytes))
	sp := res.Safepoints
	fmt.Fprintf(stdout, "%ssafepoints=%d ttspTotal=%v ttspMean=%v p50=%v p95=%v p99=%v max=%v\n",
		prefix, sp.Count, sp.Total.Round(time.Microsecond), sp.Mean.Round(time.Microsecond),
		sp.P50.Round(time.Microsecond), sp.P95.Round(time.Microsecond),
		sp.P99.Round(time.Microsecond), sp.Max.Round(time.Microsecond))
	return 0
}

// simulate runs cfg for d, or replays the allocation trace at path if set.
func simulate(cfg jvmgc.SimulationConfig, path string, d time.Duration) (*jvmgc.SimulationResult, error) {
	if path == "" {
		return jvmgc.Simulate(cfg, d)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return jvmgc.SimulateTrace(cfg, f)
}

// runDacapo is gcsim dacapo: a DaCapo benchmark under one collector or all six.
func runDacapo(args []string, stdout, stderr io.Writer) int {
	f := newModeFlags("gcsim dacapo", stderr)
	f.jvm("the paper's baseline (~5.6g)")
	var (
		bench      = f.String("bench", "xalan", "DaCapo benchmark name (-list prints them)")
		list       = f.Bool("list", false, "list benchmarks and exit")
		all        = f.Bool("all-collectors", false, "run all six collectors")
		iters      = f.Int("iterations", 10, "benchmark iterations")
		noSystemGC = f.Bool("no-system-gc", false, "disable the forced full GC between iterations")
	)
	if !f.parse(args) {
		return 2
	}
	if *list {
		fmt.Fprintln(stdout, strings.Join(jvmgc.Benchmarks(), "\n"))
		return 0
	}

	rec := f.recorder()
	collectors := []string{*f.collector}
	if *all {
		if rec != nil || *f.gclog != "" {
			fmt.Fprintln(stderr, "gcsim dacapo: the exports record one run; -all-collectors runs six")
			f.Usage()
			return 2
		}
		collectors = jvmgc.Collectors()
	}
	var logText func() string
	for _, c := range collectors {
		res, err := jvmgc.RunBenchmark(jvmgc.BenchmarkOptions{
			Benchmark:   *bench,
			Collector:   c,
			HeapBytes:   f.heap.bytes,
			YoungBytes:  f.young.bytes,
			Iterations:  *iters,
			NoSystemGC:  *noSystemGC,
			DisableTLAB: *f.noTLAB,
			Recorder:    rec,
			Seed:        *f.seed,
		})
		if err != nil {
			return f.done(fmt.Errorf("%s/%s: %w", *bench, c, err))
		}
		logText = res.LogText
		fmt.Fprintf(stdout, "%-12s total=%.3fs final=%.3fs pauses=%d full=%d maxPause=%v totalPause=%v\n",
			c, res.TotalSeconds,
			res.IterationSeconds[len(res.IterationSeconds)-1],
			len(res.Pauses), res.FullGCs, res.MaxPause, res.TotalPause)
		for i, d := range res.IterationSeconds {
			fmt.Fprintf(stdout, "  iteration %2d: %.3fs\n", i+1, d)
		}
	}
	return f.done(f.writeExports(rec, logText))
}

// runCassandra is gcsim cassandra: the paper's §4 client-server latency study.
func runCassandra(args []string, stdout, stderr io.Writer) int {
	f := newModeFlags("gcsim cassandra", stderr)
	var (
		stress   = f.Bool("stress", false, "use the paper's stress configuration (no flushes, preloaded commitlog)")
		duration = f.Duration("duration", 2*time.Hour, "client-driven run length (simulated)")
		ops      = f.Float64("ops", 150, "client arrival rate (ops/second)")
		points   = f.Bool("points", false, "dump the latency points and GC series (Figure 5 data)")
		asJSON   = f.Bool("json", false, "emit the full result as JSON (bands, pauses and points)")
	)
	if !f.parse(args) {
		return 2
	}
	res, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{
		Collector:       *f.collector,
		Stress:          *stress,
		Duration:        *duration,
		ClientOpsPerSec: *ops,
		Seed:            *f.seed,
	})
	if err == nil && *asJSON {
		err = writeJSON(stdout, res)
	}
	if err != nil || *asJSON {
		return f.done(err)
	}
	fmt.Fprintf(stdout, "server: %s, %.0fs total (%.0fs replay), %d pauses (%d full), max pause %v\n",
		*f.collector, res.TotalSeconds, res.ReplaySeconds, len(res.ServerPauses), res.FullGCs, res.MaxPause)
	printBands := func(name string, b jvmgc.LatencyBands) {
		fmt.Fprintf(stdout, "%s: n=%d avg=%.3fms min=%.3fms max=%.3fms normal-band=%.2f%%reqs/%.2f%%GCs\n",
			name, b.N, b.AvgMS, b.MinMS, b.MaxMS, b.NormalReqsPct, b.NormalGCsPct)
		for _, line := range b.Exceedance {
			fmt.Fprintf(stdout, "  %-11s %.3f%%reqs  %.1f%%GCs\n", line.Label, line.ReqsPct, line.GCsPct)
		}
	}
	printBands("READ", res.Read)
	printBands("UPDATE", res.Update)
	if *points {
		for _, op := range res.Ops {
			typ := "UPDATE"
			if op.Read {
				typ = "READ"
			}
			fmt.Fprintf(stdout, "%s %.1f %.3f\n", typ, op.AtSeconds, op.LatencyMS)
		}
		for _, p := range res.ServerPauses {
			fmt.Fprintf(stdout, "GC %.1f %.3f\n", p.At.Seconds(), p.Duration.Seconds()*1e3)
		}
	}
	return 0
}

// modeFlags is one mode's flag set with the flags the modes share:
// -collector and -seed in all three and, after jvm, the JVM geometry and
// the flight-recorder exports. A bad value is a usage error (exit 2).
type modeFlags struct {
	*flag.FlagSet
	collector, trace, metrics, gclog *string
	seed                             *uint64
	heap, young                      sizeFlag
	noTLAB                           *bool
	sample                           *time.Duration
}

func newModeFlags(name string, stderr io.Writer) *modeFlags {
	f := &modeFlags{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
	f.SetOutput(stderr)
	f.collector = f.String("collector", "ParallelOld", "collector name, in any case (Serial, ParNew, Parallel, ParallelOld, CMS, G1)")
	f.seed = f.Uint64("seed", 1, "random seed")
	return f
}

// jvm registers the flags of the modes that run one JVM configuration;
// youngDefault says what an empty -young selects.
func (f *modeFlags) jvm(youngDefault string) {
	f.heap = sizeFlag{text: "16g", bytes: 16 << 30}
	f.Var(&f.heap, "heap", "heap `size` (-Xms=-Xmx), e.g. 512m, 16g")
	f.young = sizeFlag{zeroOK: true}
	f.Var(&f.young, "young", "young generation `size` (-Xmn); empty selects "+youngDefault)
	f.noTLAB = f.Bool("no-tlab", false, "disable TLABs (-XX:-UseTLAB)")
	f.trace = f.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the run to this file")
	f.metrics = f.String("metrics-out", "", "write a Prometheus text-format metrics snapshot of the run to this file")
	f.gclog = f.String("gclog-out", "", "write the run's GC log, the lines -v prints (gcanalyze reads it), to this file")
	f.sample = f.Duration("sample-interval", 100*time.Millisecond, "flight-recorder time-series sample interval (simulated time)")
}

// parse parses args and reports whether the mode may run, having said why
// not. The collector name takes its canonical case: "g1" runs as "G1".
// No mode takes arguments, so a mode name after flags is an error.
func (f *modeFlags) parse(args []string) bool {
	err := f.Parse(args)
	if err == nil && f.NArg() > 0 {
		err = fmt.Errorf("unexpected argument %q", f.Arg(0))
		fmt.Fprintf(f.Output(), "%s: %v\n", f.Name(), err)
		f.Usage()
	}
	*f.collector = collector.Normalize(*f.collector)
	return err == nil
}

// done returns the exit code of a run that ended with err, reporting err.
func (f *modeFlags) done(err error) int {
	if err != nil {
		fmt.Fprintf(f.Output(), "%s: %v\n", f.Name(), err)
		return 1
	}
	return 0
}

// recorder returns a flight recorder when -trace-out or -metrics-out
// asks for one, else nil: -gclog-out writes the run's own log.
func (f *modeFlags) recorder() *jvmgc.Recorder {
	if *f.trace == "" && *f.metrics == "" {
		return nil
	}
	return jvmgc.NewRecorder(*f.sample)
}

// writeExports writes the exports asked for: the flight recorder's from
// rec, which recorder returned, and the GC log that logText renders.
func (f *modeFlags) writeExports(rec *jvmgc.Recorder, logText func() string) error {
	writeLog := func(w io.Writer) error {
		_, err := io.WriteString(w, logText())
		return err
	}
	for _, x := range []struct {
		path  string
		write func(io.Writer) error
	}{{*f.trace, rec.WriteChromeTrace}, {*f.metrics, rec.WritePrometheus}, {*f.gclog, writeLog}} {
		if x.path == "" {
			continue
		}
		var buf bytes.Buffer
		if err := x.write(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(x.path, buf.Bytes(), 0o666); err != nil {
			return err
		}
	}
	return nil
}

// sizeFlag is a size in machine.ParseSize's syntax: "512m", "16g", "100k"
// or plain bytes. Zero is rejected, as no heap or allocation rate is
// zero, unless zeroOK: then zero or empty selects the mode's default.
type sizeFlag struct {
	text   string
	bytes  int64
	zeroOK bool
}

func (s *sizeFlag) String() string { return s.text }

func (s *sizeFlag) Set(v string) error {
	if s.zeroOK && strings.TrimSpace(v) == "" {
		v = "0"
	}
	b, err := machine.ParseSize(v)
	if err == nil && b == 0 && !s.zeroOK {
		err = errors.New("size must be positive")
	}
	s.text, s.bytes = v, int64(b)
	return err
}

// writeJSON writes v as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func size(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
