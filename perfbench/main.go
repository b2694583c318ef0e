// Command perfbench is the repository's benchmark. One invocation runs one
// named workload for a fixed number of seconds, checks every output the
// program returns, and prints the workload's metrics as one JSON object on
// the last line of standard output. Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 is a separate run: it records spans around the benchmark's own
// calls into each layer and prints the per-layer ledger instead. NOTES.md
// explains the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// params is one invocation's input.
type params struct {
	seed   uint64
	budget time.Duration
	traced bool
}

// outcome is what a workload reports: operation counts, the problems its
// checks found, and metric values by name.
type outcome struct {
	attempted, failed int64
	problems          []string
	values            map[string]float64
}

func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics. Each is defined for every workload
// in terms of that workload's unit of work (see NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer lists the traced run's metrics. A workload whose calls never
// enter a layer reports 0 for it: that layer is absent there by design.
var perLayer = []metricDef{
	{"core.dacapo_s", "s"},
	{"core.server_s", "s"},
	{"cassandra.run_s", "s"},
	{"ycsb.trace_s", "s"},
	{"ycsb.ops", "count"},
	{"stats.bands_s", "s"},
	{"stats.samples", "count"},
	{"core.render_s", "s"},
	{"sweep.speedup", "x"},
	{"jvm.run_s", "s"},
	{"jvm.pauses", "count"},
	{"gclog.render_s", "s"},
	{"gclog.mb", "MB"},
	{"jvmgc.summarize_s", "s"},
	{"svc.rps", "req/s"},
	{"svc.hits", "count"},
	{"svc.misses", "count"},
	{"svc.hit_p50_ms", "ms"},
	{"svc.hit_p99_ms", "ms"},
	{"svc.miss_p50_ms", "ms"},
	{"svc.miss_p99_ms", "ms"},
	{"nethttp.echo_us", "us"},
	{"nethttp.client_hop_us", "us"},
	{"fleet.forward_frac", "frac"},
	{"fleet.forward_hop_us", "us"},
	{"labd.serve_hit_us", "us"},
	{"labd.fastpath_us", "us"},
	{"labd.serve_miss_us", "us"},
	{"labd.queue_wait_ms", "ms"},
	{"fleet.peer_probes", "count"},
	{"fleet.peer_hit_ratio", "frac"},
	{"labd.cache_hit_ratio", "frac"},
	{"loadgen.gap_us", "us"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_pause_p99_ms", "ms"},
	{"unattributed_frac", "frac"},
	{"trace_overhead", "frac"},
}

var workloads = map[string]func(params) (*outcome, error){
	"paper":     runPaper,
	"jvm-hours": runJVMHours,
	"svc-mix":   runSvcMix,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper, jvm-hours or svc-mix")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0 for end-to-end metrics, 1 for the traced per-layer run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	out, err := run(params{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   out.failed == 0 && len(out.problems) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{out.values[d.name], d.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// usage is a reading of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc}
}

// cost is the wall time, process CPU time and bytes allocated since u.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64
}

func (u usage) since() cost {
	now := readUsage()
	return cost{wall: now.wall.Sub(u.wall), cpu: now.cpu - u.cpu, alloc: now.alloc - u.alloc}
}

// processCPU is the user plus system CPU time of the whole process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// unitCosts collects the cost of each unit of work of a measured phase and
// reports the end-to-end metrics as medians over the units.
type unitCosts []cost

func (u unitCosts) report(values map[string]float64) {
	var wall, cpu, alloc []float64
	for _, c := range u {
		wall = append(wall, c.wall.Seconds())
		cpu = append(cpu, c.cpu.Seconds())
		alloc = append(alloc, float64(c.alloc)/1e6)
	}
	values["wall_s"] = median(wall)
	values["cpu_s"] = median(cpu)
	values["alloc_mb"] = median(alloc)
}

// heapPeak samples the Go heap's live-object bytes until stopped and
// reports the largest reading.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

const heapSampleEvery = 2 * time.Millisecond

func watchHeap() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in MB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	return float64(<-h.done) / 1e6
}

// minSetupBatch is the shortest interval one set-up reading may cover.
// Set-ups shorter than this are timed in batches of repeated calls, so
// that clock resolution and a single scheduler delay do not dominate.
const minSetupBatch = 20 * time.Millisecond

// setupClock times a workload's set-up. Besides the readings taken before
// the measured phase, the workload takes one more after each unit of
// work, so that the median spans the host's fast and slow moments as the
// other metrics do.
type setupClock struct {
	fn       func()
	reps     int
	readings []float64
}

// newSetupClock sizes the batch for fn and takes the first readings.
func newSetupClock(fn func()) *setupClock {
	c := &setupClock{fn: fn, reps: 1}
	for {
		start := time.Now()
		c.batch()
		if time.Since(start) >= minSetupBatch || c.reps >= 1<<20 {
			break
		}
		c.reps *= 2
	}
	for range 5 {
		c.read()
	}
	return c
}

func (c *setupClock) batch() {
	for range c.reps {
		c.fn()
	}
}

// read takes one reading: the duration of one set-up in a timed batch.
func (c *setupClock) read() {
	start := time.Now()
	c.batch()
	c.readings = append(c.readings, time.Since(start).Seconds()/float64(c.reps))
}

func (c *setupClock) median() float64 { return median(c.readings) }

// runtimeReading samples the Go runtime's GC accounting.
type runtimeReading struct {
	gcCPU  float64
	cpu    time.Duration
	pauses *metrics.Float64Histogram
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return runtimeReading{gcCPU: s[0].Value.Float64(), cpu: processCPU(), pauses: s[1].Value.Float64Histogram()}
}

// gcShare reports, between two readings, the Go GC's share of the
// process's CPU time and the 99th percentile stop-the-world GC pause in
// milliseconds (the upper edge of the histogram bucket holding it).
func gcShare(a, b runtimeReading) (frac, p99ms float64) {
	if cpu := (b.cpu - a.cpu).Seconds(); cpu > 0 {
		frac = (b.gcCPU - a.gcCPU) / cpu
	}
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return frac, 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			edge := b.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.pauses.Buckets[i]
			}
			return frac, edge * 1e3
		}
	}
	return frac, 0
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	rank := int(p/100*float64(len(s))+0.999999) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// medians reduces per-cycle readings of each per-layer metric to their
// median.
func medians(cycles []map[string]float64, into map[string]float64) {
	byName := map[string][]float64{}
	for _, c := range cycles {
		for k, v := range c {
			byName[k] = append(byName[k], v)
		}
	}
	for k, vs := range byName {
		into[k] = median(vs)
	}
}
