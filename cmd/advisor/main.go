// Command advisor recommends a collector and young-generation size for a
// workload under a pause SLO, by sweeping the candidates in simulation.
//
// Example:
//
//	advisor -heap 16g -alloc 600m -threads 32 -max-pause 250ms -max-paused-pct 3
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"jvmgc"
	"jvmgc/internal/machine"
)

func main() {
	var (
		heap      = flag.String("heap", "16g", "fixed heap size to tune within")
		alloc     = flag.String("alloc", "400m", "allocation rate in bytes/second")
		threads   = flag.Int("threads", 48, "mutator threads")
		maxPause  = flag.Duration("max-pause", 500*time.Millisecond, "SLO: worst tolerable stop-the-world pause (0 = unbounded)")
		maxPaused = flag.Float64("max-paused-pct", 5, "SLO: max percent of time paused (0 = unbounded)")
		window    = flag.Duration("window", 5*time.Minute, "simulated evaluation window per candidate")
		seed      = flag.Uint64("seed", 1, "random seed")
		par       = flag.Int("parallelism", 0, "worker count for the deterministic work-stealing candidate sweep (0 = all cores); the ranking is byte-identical at any setting")
	)
	flag.Parse()

	heapBytes, err := machine.ParseSize(*heap)
	if err != nil {
		fatal(err)
	}
	allocBytes, err := machine.ParseSize(*alloc)
	if err != nil {
		fatal(err)
	}

	advice, err := jvmgc.Advise(jvmgc.AdviseOptions{
		HeapBytes:        int64(heapBytes),
		Threads:          *threads,
		AllocBytesPerSec: float64(allocBytes),
		MaxPause:         *maxPause,
		MaxPauseFraction: *maxPaused / 100,
		EvaluationWindow: *window,
		Seed:             *seed,
		Parallelism:      *par,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%-12s %-8s %-12s %-9s %-8s %s\n",
		"collector", "young", "worstPause", "paused%", "fullGCs", "verdict")
	for _, a := range advice {
		verdict := "violates SLO"
		switch {
		case a.OutOfMemory:
			verdict = "OUT OF MEMORY"
		case a.MeetsSLO:
			verdict = "meets SLO"
		}
		fmt.Printf("%-12s %-8s %-12v %-9.2f %-8d %s\n",
			a.Collector, size(a.YoungBytes),
			a.WorstPause.Round(time.Millisecond),
			100*a.PauseFraction, a.FullGCs, verdict)
	}
	if len(advice) > 0 && advice[0].MeetsSLO {
		best := advice[0]
		fmt.Printf("\nrecommendation: %s with -Xmn%s (worst pause %v, %.2f%% paused)\n",
			best.Collector, size(best.YoungBytes),
			best.WorstPause.Round(time.Millisecond), 100*best.PauseFraction)
	} else {
		fmt.Println("\nno configuration meets the SLO on this heap; consider a larger heap or a looser objective")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "advisor:", err)
	os.Exit(1)
}

func size(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2gg", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%dm", b>>20)
	default:
		return fmt.Sprintf("%d", b)
	}
}
