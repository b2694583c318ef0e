package jvmgc_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"jvmgc"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

// The simplest use: run one simulated JVM against a workload and inspect
// its garbage-collection activity. Everything is deterministic in the
// seed.
func ExampleSimulate() {
	res, err := jvmgc.Simulate(jvmgc.SimulationConfig{
		Collector:        "CMS",
		HeapBytes:        4 << 30, // 4 GiB
		AllocBytesPerSec: 800e6,   // 800 MB/s
		Seed:             7,
	}, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CMS: %d pauses, %d full\n", len(res.Pauses), res.FullGCs)
	// Output: CMS: 45 pauses, 0 full
}

// Reproduce one of the paper's DaCapo runs: xalan under the default
// collector with a forced full collection between the ten iterations.
func ExampleRunBenchmark() {
	res, err := jvmgc.RunBenchmark(jvmgc.BenchmarkOptions{
		Benchmark: "xalan",
		Collector: "ParallelOld",
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("xalan: %d iterations, %d full GCs\n", len(res.IterationSeconds), res.FullGCs)
	// Output: xalan: 10 iterations, 9 full GCs
}

// The six HotSpot collectors the paper studies, in its Table 1 order.
func ExampleCollectors() {
	fmt.Println(jvmgc.Collectors())
	// Output: [Serial ParNew Parallel ParallelOld CMS G1]
}

// Simulate one JVM running a typical server workload under two
// collectors and compare their pause behaviour, down to the first pauses
// of each log.
func Example_quickstart() {
	workload := jvmgc.SimulationConfig{
		HeapBytes:        8 << 30, // 8 GiB
		AllocBytesPerSec: 600e6,   // 600 MB/s of allocation
		Threads:          32,
		Seed:             7,
	}

	for _, collector := range []string{"ParallelOld", "CMS"} {
		cfg := workload
		cfg.Collector = collector
		res, err := jvmgc.Simulate(cfg, 2*time.Minute)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d pauses (%d full), total %v, worst %v\n",
			collector, len(res.Pauses), res.FullGCs,
			res.TotalPause.Round(time.Millisecond),
			res.MaxPause.Round(time.Millisecond))
		// Print the first few pauses of the log.
		for i, p := range res.Pauses {
			if i == 5 {
				fmt.Println("  ...")
				break
			}
			fmt.Printf("  %8.3fs  %-18s %-22s %v\n",
				p.At.Seconds(), p.Kind, "("+p.Cause+")", p.Duration.Round(time.Microsecond))
		}
	}
	// Output:
	// ParallelOld: 37 pauses (0 full), total 8.549s, worst 263ms
	//      3.765s  GC (young)         (Allocation Failure)   94.485ms
	//      7.530s  GC (young)         (Allocation Failure)   167.416ms
	//     11.059s  GC (young)         (Allocation Failure)   204.148ms
	//     14.195s  GC (young)         (Allocation Failure)   196.243ms
	//     17.015s  GC (young)         (Allocation Failure)   230.306ms
	//   ...
	// CMS: 31 pauses (0 full), total 9.765s, worst 366ms
	//      3.791s  GC (young)         (Allocation Failure)   94.056ms
	//      7.583s  GC (young)         (Allocation Failure)   366.33ms
	//     11.374s  GC (young)         (Allocation Failure)   350.614ms
	//     15.166s  GC (young)         (Allocation Failure)   278.678ms
	//     18.957s  GC (young)         (Allocation Failure)   284.027ms
	//   ...
}

// Use the laboratory the way a performance engineer would: sweep
// collectors and young-generation sizes for a fixed service workload and
// pick the configuration with the best worst-case pause under a
// throughput floor. This is the paper's §3 methodology turned into a
// tuning tool: instead of reading GC logs off a production box for every
// candidate flag combination, sweep them in simulation first.
func Example_gctuning() {
	const (
		heap     = int64(16) << 30
		duration = 5 * time.Minute
		// The service cannot tolerate losing more than 2% of its time to
		// pauses, and wants the smallest worst-case pause within that.
		maxPauseBudget = 0.02
	)
	youngSizes := []int64{1 << 30, 2 << 30, 4 << 30, 8 << 30}

	type candidate struct {
		collector string
		young     int64
		worst     time.Duration
		pauseFrac float64
	}
	var best *candidate

	fmt.Printf("%-12s %-8s %-12s %-10s %s\n", "collector", "young", "worstPause", "pause%", "verdict")
	for _, collector := range jvmgc.Collectors() {
		for _, young := range youngSizes {
			res, err := jvmgc.Simulate(jvmgc.SimulationConfig{
				Collector:        collector,
				HeapBytes:        heap,
				YoungBytes:       young,
				AllocBytesPerSec: 500e6,
				Threads:          48,
				// A service with a 1 GiB working set of medium-lived
				// request state.
				ShortLivedFraction:  0.88,
				ShortLifetime:       150 * time.Millisecond,
				MediumLivedFraction: 0.12,
				MediumLifetime:      8 * time.Second,
				Seed:                11,
			}, duration)
			if err != nil {
				log.Fatal(err)
			}
			frac := res.TotalPause.Seconds() / duration.Seconds()
			verdict := "over pause budget"
			if frac <= maxPauseBudget {
				verdict = "within budget"
				if best == nil || res.MaxPause < best.worst {
					best = &candidate{collector, young, res.MaxPause, frac}
					verdict = "<- best so far"
				}
			}
			fmt.Printf("%-12s %-8s %-12v %-10.2f %s\n",
				collector, fmt.Sprintf("%dg", young>>30), res.MaxPause.Round(time.Millisecond), 100*frac, verdict)
		}
	}
	if best == nil {
		fmt.Println("no configuration met the pause budget")
		return
	}
	fmt.Printf("\nrecommendation: %s with a %dg young generation (worst pause %v, %.2f%% paused)\n",
		best.collector, best.young>>30, best.worst.Round(time.Millisecond), 100*best.pauseFrac)
	// Output:
	// collector    young    worstPause   pause%     verdict
	// Serial       1g       908ms        40.97      over pause budget
	// Serial       2g       1.175s       29.09      over pause budget
	// Serial       4g       1.575s       20.32      over pause budget
	// Serial       8g       1.711s       11.09      over pause budget
	// ParNew       1g       257ms        12.61      over pause budget
	// ParNew       2g       337ms        8.52       over pause budget
	// ParNew       4g       297ms        3.82       over pause budget
	// ParNew       8g       229ms        1.49       <- best so far
	// Parallel     1g       167ms        13.14      over pause budget
	// Parallel     2g       213ms        7.12       over pause budget
	// Parallel     4g       227ms        3.01       over pause budget
	// Parallel     8g       229ms        1.49       within budget
	// ParallelOld  1g       167ms        13.14      over pause budget
	// ParallelOld  2g       213ms        7.12       over pause budget
	// ParallelOld  4g       227ms        3.01       over pause budget
	// ParallelOld  8g       229ms        1.49       within budget
	// CMS          1g       256ms        12.44      over pause budget
	// CMS          2g       336ms        8.50       over pause budget
	// CMS          4g       338ms        3.51       over pause budget
	// CMS          8g       228ms        1.41       <- best so far
	// G1           1g       409ms        14.58      over pause budget
	// G1           2g       230ms        6.80       over pause budget
	// G1           4g       221ms        2.82       over pause budget
	// G1           8g       223ms        1.38       <- best so far
	//
	// recommendation: G1 with a 8g young generation (worst pause 223ms, 1.38% paused)
}

// The paper's §4 client-server study as an SLA question: which collector
// keeps the database's client latency tail inside the budget? Run the
// Cassandra-style node under the three main collectors with a YCSB-style
// 50/50 workload, check the read-latency tail against an SLA, and
// attribute the violations to GC pause shadows.
func Example_latencysla() {
	const (
		slaMS    = 50.0 // 50 ms read SLA
		slaQuant = 0.999
	)

	fmt.Printf("SLA: p%.1f read latency <= %.0fms over a simulated 2h run\n\n", 100*slaQuant, slaMS)
	for _, collector := range []string{"ParallelOld", "CMS", "G1"} {
		res, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{
			Collector: collector,
			Duration:  2 * time.Hour,
			Seed:      3,
		})
		if err != nil {
			log.Fatal(err)
		}

		var reads []float64
		violations, shadowedViolations := 0, 0
		for _, op := range res.Ops {
			if !op.Read {
				continue
			}
			reads = append(reads, op.LatencyMS)
			if op.LatencyMS > slaMS {
				violations++
				if op.ShadowedByGC {
					shadowedViolations++
				}
			}
		}
		sort.Float64s(reads)
		p := reads[int(float64(len(reads))*slaQuant)]

		status := "PASS"
		if p > slaMS {
			status = "FAIL"
		}
		gcShare := 0.0
		if violations > 0 {
			gcShare = 100 * float64(shadowedViolations) / float64(violations)
		}
		fmt.Printf("%-12s %s  p99.9=%.1fms  avg=%.2fms  max=%.0fms  violations=%d (%.0f%% during GC pauses)\n",
			collector, status, p, res.Read.AvgMS, res.Read.MaxMS, violations, gcShare)
	}
	fmt.Println("\nThe paper's conclusion in one run: almost every latency peak is a GC pause shadow.")
	// Output:
	// SLA: p99.9 read latency <= 50ms over a simulated 2h run
	//
	// ParallelOld  FAIL  p99.9=66.8ms  avg=1.84ms  max=242ms  violations=608 (100% during GC pauses)
	// CMS          FAIL  p99.9=234.5ms  avg=2.18ms  max=429ms  violations=1197 (100% during GC pauses)
	// G1           FAIL  p99.9=116.1ms  avg=1.93ms  max=259ms  violations=930 (100% during GC pauses)
	//
	// The paper's conclusion in one run: almost every latency peak is a GC pause shadow.
}

// Define your own workload demographics and study how each collector
// handles it, including the TLAB question from the paper's §3.4: does the
// thread-local allocation fast path help this workload? The workload is
// a batch analytics job: a very high allocation rate, almost everything
// short-lived, with a slowly growing result set.
func Example_customworkload() {
	base := jvmgc.SimulationConfig{
		HeapBytes:           32 << 30,
		Threads:             48,
		AllocBytesPerSec:    2.5e9, // 2.5 GB/s — allocation-bound analytics
		ShortLivedFraction:  0.965,
		ShortLifetime:       40 * time.Millisecond,
		MediumLivedFraction: 0.03,
		MediumLifetime:      2 * time.Second,
		Seed:                21,
	}
	const duration = 3 * time.Minute

	fmt.Println("collector    TLAB   pauses  totalPause  maxPause")
	for _, collector := range jvmgc.Collectors() {
		var withTLAB, withoutTLAB time.Duration
		for _, disable := range []bool{false, true} {
			cfg := base
			cfg.Collector = collector
			cfg.DisableTLAB = disable
			res, err := jvmgc.Simulate(cfg, duration)
			if err != nil {
				log.Fatal(err)
			}
			label := "on "
			if disable {
				label = "off"
			}
			fmt.Printf("%-12s %s    %-7d %-11v %v\n",
				collector, label, len(res.Pauses),
				res.TotalPause.Round(time.Millisecond),
				res.MaxPause.Round(time.Millisecond))
			if disable {
				withoutTLAB = res.TotalPause
			} else {
				withTLAB = res.TotalPause
			}
		}
		// At 2.5 GB/s the allocation path matters: compare GC load.
		diff := withoutTLAB - withTLAB
		fmt.Printf("%-12s        TLAB changes total pause by %v\n", collector, diff.Round(time.Millisecond))
	}
	fmt.Println("\nAt multi-GB/s allocation rates, disabling the TLAB taxes every")
	fmt.Println("allocation with a CAS — the mutator slows down, so the same amount")
	fmt.Println("of work takes longer wall time (see the paper's §3.4).")
	// Output:
	// collector    TLAB   pauses  totalPause  maxPause
	// Serial       on     49      1m40.117s   2.691s
	// Serial       off    43      1m33.019s   2.893s
	// Serial              TLAB changes total pause by -7.099s
	// ParNew       on     49      11.818s     292ms
	// ParNew       off    43      10.221s     289ms
	// ParNew              TLAB changes total pause by -1.596s
	// Parallel     on     49      7.932s      190ms
	// Parallel     off    43      6.757s      182ms
	// Parallel            TLAB changes total pause by -1.175s
	// ParallelOld  on     49      7.932s      190ms
	// ParallelOld  off    43      6.757s      182ms
	// ParallelOld         TLAB changes total pause by -1.175s
	// CMS          on     49      11.803s     292ms
	// CMS          off    43      10.209s     289ms
	// CMS                 TLAB changes total pause by -1.594s
	// G1           on     38      7.114s      244ms
	// G1           off    32      5.937s      243ms
	// G1                  TLAB changes total pause by -1.177s
	//
	// At multi-GB/s allocation rates, disabling the TLAB taxes every
	// allocation with a CAS — the mutator slows down, so the same amount
	// of work takes longer wall time (see the paper's §3.4).
}

// The paper's closing warning made concrete: "in a distributed system,
// even a lag of a few seconds might result in the current node being
// considered down and the initiation of a cumbersome synchronization
// protocol." Run the saturated storage node under each collector and ask
// the cluster's question: how often would gossip peers have declared
// this node dead purely because of garbage collection?
func Example_clusterimpact() {
	// Cassandra-like gossip: heartbeats every second, peers suspect the
	// node after ~8 s of silence.
	const suspicionTimeout = 8 * time.Second

	fmt.Printf("failure-detector timeout: %v\n\n", suspicionTimeout)
	for _, collector := range []string{"ParallelOld", "CMS", "G1", "HTM"} {
		res, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{
			Collector: collector,
			Stress:    true,
			Duration:  2 * time.Hour,
			Seed:      13,
		})
		if err != nil {
			log.Fatal(err)
		}
		suspicions := 0
		var down time.Duration
		var worst time.Duration
		for _, p := range res.ServerPauses {
			if p.Duration > worst {
				worst = p.Duration
			}
			if p.Duration > suspicionTimeout {
				suspicions++
				down += p.Duration - suspicionTimeout
			}
		}
		verdict := "node stays in the ring"
		if suspicions > 0 {
			verdict = fmt.Sprintf("peers declare it DOWN %d time(s), %v of false downtime",
				suspicions, down.Round(time.Second))
		}
		fmt.Printf("%-12s worst pause %-10v -> %s\n",
			collector, worst.Round(time.Millisecond), verdict)
	}
	fmt.Println("\nEvery suspicion costs the cluster hint accumulation, reconnects and")
	fmt.Println("read repair when the 'dead' node reappears — GC pauses become a")
	fmt.Println("cluster-wide event (paper §4.1, §6).")
	// Output:
	// failure-detector timeout: 8s
	//
	// ParallelOld  worst pause 1m44.921s  -> peers declare it DOWN 8 time(s), 2m7s of false downtime
	// CMS          worst pause 2.442s     -> node stays in the ring
	// G1           worst pause 1.986s     -> node stays in the ring
	// HTM          worst pause 6ms        -> node stays in the ring
	//
	// Every suspicion costs the cluster hint accumulation, reconnects and
	// read repair when the 'dead' node reappears — GC pauses become a
	// cluster-wide event (paper §4.1, §6).
}

// Run the YCSB core workloads (A–F) against the same simulated storage
// node and compare how each access pattern experiences the server's
// garbage collector. Scan-heavy workloads (E) pay more per operation but
// expose a smaller share of requests to pause shadows; read-only
// workloads (C) feel every pause as a spike.
func Example_workloads() {
	workloads := []struct {
		letter byte
		name   string
	}{
		{'A', "A update-heavy"},
		{'B', "B read-mostly"},
		{'C', "C read-only"},
		{'E', "E short-ranges"},
		{'F', "F read-modify-write"},
	}
	fmt.Println("workload              avg(ms)  max(ms)  normal-band")
	for _, w := range workloads {
		res, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{
			Collector: "CMS",
			Duration:  time.Hour,
			Workload:  w.letter,
			Seed:      9,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Workload F has no reads; report the dominant operation type.
		bands := res.Read
		if bands.N == 0 {
			bands = res.Update
		}
		fmt.Printf("%-20s  %-7.3f  %-7.1f  %.1f%%\n",
			w.name, bands.AvgMS, bands.MaxMS, bands.NormalReqsPct)
	}
	// Output:
	// workload              avg(ms)  max(ms)  normal-band
	// A update-heavy        2.051    408.9    98.3%
	// B read-mostly         2.060    415.9    98.2%
	// C read-only           2.060    415.9    98.2%
	// E short-ranges        13.646   429.6    98.6%
	// F read-modify-write   1.956    415.6    99.8%
}

// The GC laboratory as a service: start the labd job daemon in-process
// (cmd/gclabd runs the same daemon standalone), submit experiments over
// its HTTP/JSON API with the Go client, and watch the content-addressed
// cache at work: the first submission runs a simulation, and every
// identical one after it is answered from the cache with the same bytes.
func Example_labservice() {
	ctx := context.Background()

	// Start the daemon: 2 workers, a short backlog, LRU-bounded cache,
	// on an ephemeral port.
	srv, err := labd.New(labd.Config{Workers: 2, QueueDepth: 16, CacheEntries: 64})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c := client.New(ts.URL)
	if err := c.Healthz(ctx); err != nil {
		log.Fatal(err)
	}

	// One experiment: a saturating allocation workload under CMS.
	spec := labd.JobSpec{
		Kind:             labd.KindSimulate,
		Collector:        "CMS",
		HeapBytes:        8 << 30,
		Threads:          32,
		AllocBytesPerSec: 500e6,
		DurationSeconds:  120,
		Seed:             7,
	}

	// Cold run: the daemon schedules and executes the simulation.
	cold, err := c.Submit(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cold run: job %s, cache %s, %d bytes\n", cold.JobID, cold.Cache, len(cold.Bytes))

	// Same spec again: a cache hit, served without scheduling a job and
	// byte-identical to the cold run.
	hit, err := c.Submit(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resubmit: cache %s, %d bytes, byte-identical %v\n\n",
		hit.Cache, len(hit.Bytes), bytes.Equal(cold.Bytes, hit.Bytes))

	// The result decodes into the laboratory's native types.
	res, err := hit.Result()
	if err != nil {
		log.Fatal(err)
	}
	sim := res.Simulation
	fmt.Printf("%s on 8g heap: %d pauses (%d full GCs), worst %v, %v paused in total\n\n",
		spec.Collector, len(sim.Pauses), sim.FullGCs,
		sim.MaxPause.Round(time.Millisecond), sim.TotalPause.Round(time.Millisecond))

	// An advisory sweep through the same front door: which collector and
	// young size meet a 200 ms pause SLO on this heap?
	adv, err := c.Submit(ctx, labd.JobSpec{
		Kind:             labd.KindAdvise,
		HeapBytes:        8 << 30,
		Threads:          32,
		AllocBytesPerSec: 500e6,
		DurationSeconds:  60,
		MaxPauseMS:       200,
		Seed:             7,
	})
	if err != nil {
		log.Fatal(err)
	}
	advRes, err := adv.Result()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(advRes.Text)

	// The daemon's own telemetry: job and cache counters plus scheduler
	// gauges, in Prometheus text format.
	metrics, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("metrics excerpt:")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "jvmgc_labd_") &&
			(strings.Contains(line, "cache") || strings.Contains(line, "simulations") ||
				strings.Contains(line, "submitted")) {
			fmt.Println("  " + line)
		}
	}

	shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(shutdownCtx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndaemon drained cleanly")
	// Output:
	// cold run: job j1, cache miss, 5222 bytes
	// resubmit: cache hit, 5222 bytes, byte-identical true
	//
	// CMS on 8g heap: 26 pauses (0 full GCs), worst 333ms, 7.409s paused in total
	//
	// collector    youngBytes   worstPause   paused%   fullGCs  verdict
	// G1           1073741824   141.286407ms 10.94     0        meets SLO
	// Parallel     1073741824   133.799811ms 11.04     0        meets SLO
	// ParallelOld  1073741824   133.799811ms 11.04     0        meets SLO
	// Parallel     2147483648   206.599147ms 6.09      0        violates SLO
	// ParallelOld  2147483648   206.599147ms 6.09      0        violates SLO
	// G1           2147483648   209.999214ms 5.87      0        violates SLO
	// CMS          1073741824   215.00761ms  11.20     0        violates SLO
	// ParNew       1073741824   215.835439ms 11.24     0        violates SLO
	// G1           2863311530   240.241742ms 4.61      0        violates SLO
	// Parallel     2863311530   241.527407ms 4.96      0        violates SLO
	// ParallelOld  2863311530   241.527407ms 4.96      0        violates SLO
	// CMS          2147483648   291.10223ms  6.87      0        violates SLO
	// ParNew       2147483648   292.150745ms 6.89      0        violates SLO
	// Parallel     4294967296   315.582154ms 3.68      0        violates SLO
	// ParallelOld  4294967296   315.582154ms 3.68      0        violates SLO
	// G1           4294967296   316.948865ms 3.68      0        violates SLO
	// CMS          2863311530   332.746271ms 5.93      0        violates SLO
	// ParNew       2863311530   333.964293ms 5.94      0        violates SLO
	// CMS          4294967296   405.979373ms 4.16      0        violates SLO
	// ParNew       4294967296   406.933423ms 4.17      0        violates SLO
	// Serial       1073741824   670.018222ms 34.44     0        violates SLO
	// Serial       2147483648   1.110928536s 24.69     0        violates SLO
	// Serial       2863311530   1.27665269s  23.93     0        violates SLO
	// Serial       4294967296   1.831034646s 20.13     0        violates SLO
	//
	// metrics excerpt:
	//   jvmgc_labd_cache_corruptions_detected_total 0
	//   jvmgc_labd_cache_entries 2
	//   jvmgc_labd_cache_hits_memory_total 1
	//   jvmgc_labd_cache_hits_total 1
	//   jvmgc_labd_cache_misses_total 2
	//   jvmgc_labd_jobs_submitted_total 3
	//   jvmgc_labd_simulations_total 2
	//
	// daemon drained cleanly
}
