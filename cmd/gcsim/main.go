// Command gcsim runs one simulated JVM under a chosen collector and
// workload, and prints the resulting GC log and pause summary.
//
// Example:
//
//	gcsim -collector CMS -heap 4g -young 1g -alloc 800m -duration 60s -v
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"jvmgc"
	"jvmgc/internal/profiling"
)

func main() {
	var (
		collectorName = flag.String("collector", "ParallelOld", "collector name (Serial, ParNew, Parallel, ParallelOld, CMS, G1)")
		heap          = flag.String("heap", "16g", "heap size (-Xms=-Xmx), e.g. 512m, 16g")
		young         = flag.String("young", "", "young generation size (-Xmn); empty selects ergonomics")
		alloc         = flag.String("alloc", "200m", "allocation rate in bytes/second, e.g. 800m")
		threads       = flag.Int("threads", 48, "mutator threads")
		duration      = flag.Duration("duration", time.Minute, "simulated run duration")
		noTLAB        = flag.Bool("no-tlab", false, "disable TLABs (-XX:-UseTLAB)")
		seed          = flag.Uint64("seed", 1, "random seed")
		verbose       = flag.Bool("v", false, "print the full GC log")
		asJSON        = flag.Bool("json", false, "emit the result as JSON")
		trace         = flag.String("trace", "", "CSV allocation trace to replay (seconds,alloc_bytes_per_sec); overrides -alloc and -duration")
		traceOut      = flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the run to this file")
		metricsOut    = flag.String("metrics-out", "", "write a Prometheus text-format metrics snapshot of the run to this file")
		sample        = flag.Duration("sample-interval", 100*time.Millisecond, "flight-recorder time-series sample interval (simulated time)")
		cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile    = flag.String("memprofile", "", "write an allocation profile of the run to this file (go tool pprof)")
	)
	flag.Parse()

	stopCPU, perr := profiling.Start(*cpuprofile)
	if perr != nil {
		fatal(perr)
	}

	heapBytes, err := parseSize(*heap)
	if err != nil {
		fatal(err)
	}
	var youngBytes int64
	if *young != "" {
		if youngBytes, err = parseSize(*young); err != nil {
			fatal(err)
		}
	}
	allocBytes, err := parseSize(*alloc)
	if err != nil {
		fatal(err)
	}

	cfg := jvmgc.SimulationConfig{
		Collector:        *collectorName,
		HeapBytes:        heapBytes,
		YoungBytes:       youngBytes,
		DisableTLAB:      *noTLAB,
		Threads:          *threads,
		AllocBytesPerSec: float64(allocBytes),
		Seed:             *seed,
	}
	if *traceOut != "" || *metricsOut != "" {
		cfg.Recorder = jvmgc.NewRecorder(*sample)
	}
	var res *jvmgc.SimulationResult
	if *trace != "" {
		f, err := os.Open(*trace)
		if err != nil {
			fatal(err)
		}
		res, err = jvmgc.SimulateTrace(cfg, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		var err error
		res, err = jvmgc.Simulate(cfg, *duration)
		if err != nil {
			fatal(err)
		}
	}

	if cfg.Recorder != nil {
		if *traceOut != "" {
			if err := writeExport(*traceOut, cfg.Recorder.WriteChromeTrace); err != nil {
				fatal(err)
			}
		}
		if *metricsOut != "" {
			if err := writeExport(*metricsOut, cfg.Recorder.WritePrometheus); err != nil {
				fatal(err)
			}
		}
	}

	stopCPU()
	if err := profiling.WriteHeap(*memprofile); err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	// With -v the summary trails the log on stdout; render it as gclog
	// comment lines so the output stays parseable (`gcsim -v | gcanalyze`).
	prefix := ""
	if *verbose {
		fmt.Print(res.LogText)
		prefix = "# "
	}
	fmt.Printf("%scollector=%s duration=%v pauses=%d full=%d totalPause=%v maxPause=%v heapUsed=%s oldLive=%s\n",
		prefix, *collectorName, *duration, len(res.Pauses), res.FullGCs,
		res.TotalPause.Round(time.Microsecond), res.MaxPause.Round(time.Microsecond),
		size(res.HeapUsed), size(res.OldLiveBytes))
	sp := res.Safepoints
	fmt.Printf("%ssafepoints=%d ttspTotal=%v ttspMean=%v p50=%v p95=%v p99=%v max=%v\n",
		prefix, sp.Count, sp.Total.Round(time.Microsecond), sp.Mean.Round(time.Microsecond),
		sp.P50.Round(time.Microsecond), sp.P95.Round(time.Microsecond),
		sp.P99.Round(time.Microsecond), sp.Max.Round(time.Microsecond))
}

// writeExport writes one recorder export to path.
func writeExport(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcsim:", err)
	os.Exit(1)
}

// parseSize parses "512m", "16g", "100k" or a plain byte count.
func parseSize(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return 0, fmt.Errorf("empty size")
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k':
		mult = 1 << 10
		s = s[:len(s)-1]
	case 'm':
		mult = 1 << 20
		s = s[:len(s)-1]
	case 'g':
		mult = 1 << 30
		s = s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %v", s, err)
	}
	return int64(v * float64(mult)), nil
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
