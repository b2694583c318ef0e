// Package collector implements cost-and-policy models of the six HotSpot
// garbage collectors the paper evaluates (Table 1): Serial, ParNew,
// Parallel, ParallelOld, CMS and G1.
//
// Each collector reproduces the algorithmic properties the study's
// findings hinge on:
//
//   - Serial collects both generations on one thread, with the cheapest
//     constant factors and the worst scaling.
//   - ParNew and Parallel copy the young generation in parallel but fall
//     back to a single-threaded full collection.
//   - ParallelOld adds a (mostly) parallel compacting full collection and
//     an adaptive survivor-sizing policy.
//   - CMS collects the old generation concurrently (initial-mark pause,
//     concurrent mark, remark pause, concurrent sweep), does not compact
//     (fragmentation accrues), and promotes into free lists — several
//     times more expensive per byte than bump-pointer promotion. ParNew
//     shares that promotion path (it is CMS's young collector).
//   - G1 collects incrementally with pause-target-driven young sizing and
//     mixed collections, pays remembered-set overheads everywhere, and —
//     as in JDK 8 — executes full collections (System.gc(), evacuation
//     failure) on a SINGLE thread. That serial full GC is the mechanism
//     behind the paper's headline "G1 is worst when full collections are
//     forced".
package collector

import (
	"fmt"
	"strings"

	"jvmgc/internal/gcmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// base carries what every collector shares.
type base struct {
	mach      *machine.Machine
	costs     gcmodel.Costs
	gcThreads int
}

// Config parameterizes collector construction.
type Config struct {
	Machine *machine.Machine
	Costs   gcmodel.Costs
	// GCThreads is the parallel worker gang size; 0 selects the HotSpot
	// ergonomic default for the machine.
	GCThreads int
	// ConcThreads is the concurrent worker count for CMS/G1; 0 selects
	// the ergonomic default.
	ConcThreads int
	// G1PauseTarget is G1's -XX:MaxGCPauseMillis goal; 0 selects the
	// 200 ms default.
	G1PauseTarget simtime.Duration
}

func (c Config) withDefaults() Config {
	if c.Machine == nil {
		c.Machine = machine.New(machine.PaperTestbed())
	}
	if c.Costs == (gcmodel.Costs{}) {
		c.Costs = gcmodel.DefaultCosts()
	}
	if c.GCThreads <= 0 {
		c.GCThreads = c.Machine.DefaultGCThreads()
	}
	if c.ConcThreads <= 0 {
		c.ConcThreads = c.Machine.DefaultConcGCThreads()
	}
	if c.G1PauseTarget <= 0 {
		c.G1PauseTarget = 200 * simtime.Millisecond
	}
	return c
}

// Every collector here can explain its pauses to the flight recorder.
var (
	_ gcmodel.PhaseDecomposer = (*Serial)(nil)
	_ gcmodel.PhaseDecomposer = (*ParNew)(nil)
	_ gcmodel.PhaseDecomposer = (*Parallel)(nil)
	_ gcmodel.PhaseDecomposer = (*ParallelOld)(nil)
	_ gcmodel.PhaseDecomposer = (*CMS)(nil)
	_ gcmodel.PhaseDecomposer = (*G1)(nil)
	_ gcmodel.PhaseDecomposer = (*HTM)(nil)
)

// Names returns the collector names in the order the paper lists them.
func Names() []string {
	return []string{"Serial", "ParNew", "Parallel", "ParallelOld", "CMS", "G1"}
}

// Normalize maps a case-insensitive collector name or alias onto the
// canonical name New accepts ("g1" -> "G1", "parallelold" ->
// "ParallelOld"). Unrecognized names are returned unchanged so New can
// produce its usual error.
func Normalize(name string) string {
	for _, canon := range append(append([]string{}, Names()...), ExperimentalNames()...) {
		if strings.EqualFold(name, canon) || strings.EqualFold(name, canon+"GC") {
			return canon
		}
	}
	for _, alias := range []string{"ConcMarkSweepGC", "ConcurrentMarkSweep"} {
		if strings.EqualFold(name, alias) {
			return "CMS"
		}
	}
	return name
}

// New constructs a collector by HotSpot name. Recognized names are those
// returned by Names (case-sensitive) plus the HotSpot aliases
// "ConcMarkSweepGC"/"ConcurrentMarkSweep" for CMS and "G1GC" for G1.
func New(name string, cfg Config) (gcmodel.Collector, error) {
	cfg = cfg.withDefaults()
	switch name {
	case "Serial", "SerialGC":
		return NewSerial(cfg), nil
	case "ParNew", "ParNewGC":
		return NewParNew(cfg), nil
	case "Parallel", "ParallelGC":
		return NewParallel(cfg), nil
	case "ParallelOld", "ParallelOldGC":
		return NewParallelOld(cfg), nil
	case "CMS", "ConcMarkSweepGC", "ConcurrentMarkSweep":
		return NewCMS(cfg), nil
	case "G1", "G1GC":
		return NewG1(cfg), nil
	case "HTM", "HTMGC":
		return NewHTM(cfg), nil
	default:
		return nil, fmt.Errorf("collector: unknown collector %q (known: %v)", name, Names())
	}
}
