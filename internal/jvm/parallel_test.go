package jvm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"jvmgc/internal/event"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/sweep"
)

// runDigest reduces a finished run to a byte-exact fingerprint: every GC
// log event, the exact mutator progress bits, and the final heap state.
func runDigest(j *JVM) string {
	h := sha256.New()
	for _, e := range j.Log().Events() {
		fmt.Fprintln(h, e.Start, e.Duration, e.Kind, e.Cause, e.HeapBefore, e.HeapAfter, e.Promoted)
	}
	fmt.Fprintln(h, math.Float64bits(j.Progress()), j.Heap().HeapUsed(), j.OldLive())
	c, tot, max := j.SafepointStats()
	fmt.Fprintln(h, c, tot, max)
	return hex.EncodeToString(h.Sum(nil))
}

// ensembleConfigs returns n mixed-collector configurations with distinct
// seeds, cycling through the three main collectors.
func ensembleConfigs(tb testing.TB, n int) []Config {
	names := []string{"G1", "CMS", "ParallelOld"}
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = Config{
			Machine:   machine.New(machine.PaperTestbed()),
			Collector: mustCollector(tb, names[i%len(names)]),
			Geometry:  geo(8*machine.GB, 2*machine.GB),
			Seed:      uint64(1 + i),
		}
	}
	return cfgs
}

// runEnsembleHour mounts n JVMs on wheels of their own, steps the
// wheels for d through sweep.Run on the given worker count, and returns
// each JVM's digest.
func runEnsembleHour(tb testing.TB, n, workers int, d simtime.Duration) []string {
	cfgs := ensembleConfigs(tb, n)
	jvms := make([]*JVM, n)
	for i := range jvms {
		cfgs[i].Clock = event.New()
		jvms[i] = New(cfgs[i], benchWorkload())
	}
	stepWheels(jvms, workers, d)
	digests := make([]string, n)
	for i, j := range jvms {
		digests[i] = runDigest(j)
	}
	return digests
}

// stepWheels runs each JVM's own wheel to simtime.Time(0)+d through
// sweep.Run on the given worker count (0 selects GOMAXPROCS), then
// syncs every JVM.
func stepWheels(jvms []*JVM, workers int, d simtime.Duration) {
	deadline := simtime.Time(0).Add(d)
	sweep.Run(sweep.Options{Workers: workers}, len(jvms), func(i int) error {
		jvms[i].clock.Run(deadline)
		return nil
	})
	for _, j := range jvms {
		j.Sync()
	}
}

// TestEnsembleByteIdentity is the simulator's half of the determinism
// contract: JVMs whose wheels are stepped through sweep.Run — at any
// worker count — are byte-identical to the same JVMs run standalone
// through the sequential RunFor path.
func TestEnsembleByteIdentity(t *testing.T) {
	const n = 4
	d := 20 * simtime.Minute
	want := make([]string, n)
	cfgs := ensembleConfigs(t, n)
	for i := range want {
		j := New(cfgs[i], benchWorkload())
		j.RunFor(d)
		want[i] = runDigest(j)
	}
	for _, workers := range []int{1, 2, 4} {
		got := runEnsembleHour(t, n, workers, d)
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: jvm %d diverged from standalone sequential run", workers, i)
			}
		}
	}
}

// BenchmarkEnsembleWorkers is the scaling curve: ns per simulated
// JVM-hour for 4-JVM ensembles at each worker count, per collector
// (the workers × collector table in EXPERIMENTS.md). On a 1-core host
// every worker count degenerates to near-sequential stepping and the
// curve is flat; with >= 4 cores the workers=4 rows drop toward 1/4.
func BenchmarkEnsembleWorkers(b *testing.B) {
	for _, col := range []string{"G1", "CMS"} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", col, workers), func(b *testing.B) {
				for done := 0; done < b.N; {
					k := b.N - done
					if k > 4 {
						k = 4
					}
					jvms := make([]*JVM, k)
					for i := range jvms {
						cfg := Config{
							Machine:   machine.New(machine.PaperTestbed()),
							Collector: mustCollector(b, col),
							Geometry:  geo(8*machine.GB, 2*machine.GB),
							Seed:      uint64(1 + i),
							Clock:     event.New(),
						}
						jvms[i] = New(cfg, benchWorkload())
					}
					stepWheels(jvms, workers, simtime.Hour)
					done += k
				}
			})
		}
	}
}

// TestEnsembleSpeedup measures the point of stepping wheels in
// parallel: with enough cores, stepping 4 independent JVMs on 4 workers
// beats stepping them sequentially by at least 1.5x. Wall-clock
// assertions need real cores, so the test runs only where the issue's
// target is defined (GOMAXPROCS >= 4 backed by >= 4 CPUs).
func TestEnsembleSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 || runtime.NumCPU() < 4 {
		t.Skipf("needs GOMAXPROCS >= 4 and >= 4 CPUs (have %d, %d)",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	d := simtime.Hour
	measure := func(workers int) time.Duration {
		start := time.Now()
		runEnsembleHour(t, 4, workers, d)
		return time.Since(start)
	}
	measure(1) // warm up
	serial := measure(1)
	parallel := measure(4)
	if speedup := float64(serial) / float64(parallel); speedup < 1.5 {
		t.Errorf("4-worker ensemble speedup = %.2fx (serial %v, parallel %v), want >= 1.5x",
			speedup, serial, parallel)
	}
}
