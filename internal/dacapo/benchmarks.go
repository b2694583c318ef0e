// Package dacapo models the DaCapo-2009 benchmark suite as a set of
// synthetic workload profiles plus the iteration harness the paper drives
// them with (§2.1, §3).
//
// Each profile encodes what the study relies on: the benchmark's thread
// structure (the paper's §2.1 inventory), its allocation rate and object
// demographics (which set pause magnitudes), its persistent and
// per-iteration live sets (which set full-GC cost), its TLAB sensitivity,
// and its run-to-run noise structure (which reproduces the stability
// screening of Table 2 — including the three benchmarks that crash and
// the four that are too unstable to keep).
//
// Calibration targets come from the paper: iteration times around a
// second, minor pauses of tens to hundreds of milliseconds, full
// collections of DaCapo-size live sets around 0.3–1.6 s depending on the
// collector (Figure 1), and the Table 2 relative standard deviations.
package dacapo

import (
	"fmt"
	"sort"

	"jvmgc/internal/demography"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// Benchmark is one DaCapo workload profile.
type Benchmark struct {
	// Name is the DaCapo benchmark name.
	Name string
	// Description summarizes the thread structure per the paper's §2.1.
	Description string
	// ThreadsPerCore selects one client thread per hardware thread.
	ThreadsPerCore bool
	// FixedThreads is the thread count when ThreadsPerCore is false.
	FixedThreads int
	// IterationSeconds is the ideal duration of one iteration at full
	// mutator speed.
	IterationSeconds float64
	// AllocRate is the young allocation rate in bytes per second of
	// full-speed execution.
	AllocRate float64
	// ShortFrac/MediumFrac and the mean lifetimes shape the demography;
	// the remainder of the allocation is the per-iteration long-lived
	// component.
	ShortFrac  float64
	MeanShort  simtime.Duration
	MediumFrac float64
	MeanMedium simtime.Duration
	// PersistentLive is live data built at startup that survives the
	// whole run (h2's database).
	PersistentLive machine.Bytes
	// MediumPersists marks benchmarks whose medium-lived component is
	// cross-iteration state (h2's caches) rather than iteration-scoped
	// working data released at teardown.
	MediumPersists bool
	// TLABWaste overrides the TLAB retire-waste fraction (irregular
	// allocation sizes waste more); 0 keeps the default.
	TLABWaste float64
	// RunNoise, IterNoise and WarmupNoise are relative standard
	// deviations (fractions): per-run speed, per-iteration work, and
	// extra per-iteration noise during the warm-up rounds.
	RunNoise    float64
	IterNoise   float64
	WarmupNoise float64
	// Crashes marks the benchmarks that crashed on every test in the
	// paper (eclipse, tradebeans, tradesoap).
	Crashes bool
}

// Threads returns the mutator thread count on a machine with hwThreads
// hardware threads.
func (b Benchmark) Threads(hwThreads int) int {
	if b.ThreadsPerCore {
		if hwThreads < 1 {
			hwThreads = 1
		}
		return hwThreads
	}
	if b.FixedThreads < 1 {
		return 1
	}
	return b.FixedThreads
}

// Profile returns the benchmark's lifetime mixture.
func (b Benchmark) Profile() demography.Profile {
	return demography.Profile{
		ShortFrac:  b.ShortFrac,
		MeanShort:  b.MeanShort,
		MediumFrac: b.MediumFrac,
		MeanMedium: b.MeanMedium,
	}
}

// Validate reports whether the profile is well-formed.
func (b Benchmark) Validate() error {
	if b.Name == "" {
		return fmt.Errorf("dacapo: benchmark without a name")
	}
	if b.Crashes {
		return nil
	}
	if b.IterationSeconds <= 0 || b.AllocRate <= 0 {
		return fmt.Errorf("dacapo: %s has no work", b.Name)
	}
	return b.Profile().Validate()
}

// suite lists the 14 DaCapo-2009 benchmarks with calibrated profiles.
var suite = []Benchmark{
	{
		Name:         "avrora",
		Description:  "single external thread, internally multi-threaded",
		FixedThreads: 8, IterationSeconds: 1.5, AllocRate: 80e6,
		ShortFrac: 0.92, MeanShort: 150 * simtime.Millisecond,
		MediumFrac: 0.05, MeanMedium: 2 * simtime.Second,
		RunNoise: 0.14, IterNoise: 0.08, WarmupNoise: 0.05,
	},
	{
		Name:         "batik",
		Description:  "mostly single-threaded externally and internally",
		FixedThreads: 2, IterationSeconds: 1.9, AllocRate: 60e6,
		ShortFrac: 0.90, MeanShort: 250 * simtime.Millisecond,
		MediumFrac: 0.06, MeanMedium: 2 * simtime.Second,
		RunNoise: 0.005, IterNoise: 0.112,
	},
	{
		Name:        "eclipse",
		Description: "single external thread, internally multi-threaded",
		Crashes:     true,
	},
	{
		Name:         "fop",
		Description:  "single-threaded",
		FixedThreads: 1, IterationSeconds: 0.6, AllocRate: 100e6,
		ShortFrac: 0.93, MeanShort: 100 * simtime.Millisecond,
		MediumFrac: 0.04, MeanMedium: simtime.Second,
		RunNoise: 0.07, IterNoise: 0.07, WarmupNoise: 0.05,
	},
	{
		Name:           "h2",
		Description:    "multi-threaded, one client thread per hardware thread",
		ThreadsPerCore: true, IterationSeconds: 19, AllocRate: 300e6,
		ShortFrac: 0.67, MeanShort: 300 * simtime.Millisecond,
		MediumFrac: 0.25, MeanMedium: 12 * simtime.Second,
		PersistentLive: 180 * machine.MB,
		MediumPersists: true,
		RunNoise:       0.011, IterNoise: 0.014,
	},
	{
		Name:           "jython",
		Description:    "single external thread, one internal thread per hardware thread",
		ThreadsPerCore: true, IterationSeconds: 2.2, AllocRate: 120e6,
		ShortFrac: 0.88, MeanShort: 120 * simtime.Millisecond,
		MediumFrac: 0.08, MeanMedium: 2 * simtime.Second,
		TLABWaste: 0.05,
		RunNoise:  0.028, IterNoise: 0.042,
	},
	{
		Name:         "luindex",
		Description:  "single external thread with a few limited helper threads",
		FixedThreads: 4, IterationSeconds: 1.6, AllocRate: 70e6,
		ShortFrac: 0.90, MeanShort: 200 * simtime.Millisecond,
		MediumFrac: 0.06, MeanMedium: 2 * simtime.Second,
		RunNoise: 0.01, IterNoise: 0.026, WarmupNoise: 0.20,
	},
	{
		Name:           "lusearch",
		Description:    "multi-threaded, one client thread per hardware thread",
		ThreadsPerCore: true, IterationSeconds: 1.2, AllocRate: 500e6,
		ShortFrac: 0.96, MeanShort: 60 * simtime.Millisecond,
		MediumFrac: 0.02, MeanMedium: simtime.Second,
		RunNoise: 0.10, IterNoise: 0.09, WarmupNoise: 0.06,
	},
	{
		Name:           "pmd",
		Description:    "single client thread, one internal worker per hardware thread",
		ThreadsPerCore: true, IterationSeconds: 1.5, AllocRate: 110e6,
		ShortFrac: 0.86, MeanShort: 180 * simtime.Millisecond,
		MediumFrac: 0.10, MeanMedium: 3 * simtime.Second,
		TLABWaste: 0.06,
		RunNoise:  0.0074, IterNoise: 0.008,
	},
	{
		Name:           "sunflow",
		Description:    "multi-threaded, one client thread per hardware thread",
		ThreadsPerCore: true, IterationSeconds: 1.1, AllocRate: 900e6,
		ShortFrac: 0.97, MeanShort: 40 * simtime.Millisecond,
		MediumFrac: 0.02, MeanMedium: 500 * simtime.Millisecond,
		RunNoise: 0.07, IterNoise: 0.065, WarmupNoise: 0.05,
	},
	{
		Name:           "tomcat",
		Description:    "multi-threaded, one client thread per hardware thread",
		ThreadsPerCore: true, IterationSeconds: 2.8, AllocRate: 140e6,
		ShortFrac: 0.88, MeanShort: 150 * simtime.Millisecond,
		MediumFrac: 0.10, MeanMedium: 3 * simtime.Second,
		RunNoise: 0.011, IterNoise: 0.014,
	},
	{
		Name:        "tradebeans",
		Description: "multi-threaded, one client thread per hardware thread",
		Crashes:     true,
	},
	{
		Name:        "tradesoap",
		Description: "same as tradebeans",
		Crashes:     true,
	},
	{
		Name:           "xalan",
		Description:    "multi-threaded, one client thread per hardware thread",
		ThreadsPerCore: true, IterationSeconds: 1.2, AllocRate: 700e6,
		ShortFrac: 0.78, MeanShort: 80 * simtime.Millisecond,
		MediumFrac: 0.20, MeanMedium: 1500 * simtime.Millisecond,
		TLABWaste: 0.04,
		RunNoise:  0.039, IterNoise: 0.051,
	},
}

// All returns the full 14-benchmark suite in alphabetical order.
func All() []Benchmark {
	out := append([]Benchmark(nil), suite...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// StableSubset returns the paper's Table 2 selection: the seven
// benchmarks stable enough for the study.
func StableSubset() []Benchmark {
	names := []string{"h2", "tomcat", "xalan", "jython", "pmd", "luindex", "batik"}
	out := make([]Benchmark, 0, len(names))
	for _, n := range names {
		b, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, b)
	}
	return out
}

// ByName looks a benchmark up by name.
func ByName(name string) (Benchmark, error) {
	for _, b := range suite {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("dacapo: unknown benchmark %q", name)
}

// Names returns all benchmark names in alphabetical order.
func Names() []string {
	out := make([]string, 0, len(suite))
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}
