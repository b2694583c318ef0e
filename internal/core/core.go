// Package core is the paper's evaluation reproduced as a library: one
// entry point per table and figure of "A Performance Study of Java
// Garbage Collectors on Multicore Architectures" (PMAM '15).
//
// Every experiment is expressed against the laboratory substrates —
// internal/dacapo for §3's benchmark study, internal/cassandra and
// internal/ycsb for §4's client-server study — and returns a structured
// result with a Render method that prints the same rows or series the
// paper reports.
//
// A Lab carries the shared configuration (machine, seed, scale). The
// Scale knob shrinks run counts and durations proportionally so the whole
// evaluation can run in CI; Scale=1 reproduces the paper's dimensions.
package core

import (
	"fmt"
	"strings"

	"jvmgc/internal/machine"
	"jvmgc/internal/telemetry"
)

// Lab is the experiment context.
type Lab struct {
	// Machine is the simulated testbed (defaults to the paper's 48-core
	// server).
	Machine *machine.Machine
	// Seed drives all randomness; a Lab replays bit-identically.
	Seed uint64
	// Runs is the number of repetitions for stability statistics
	// (paper: 10).
	Runs int
	// ClientDuration is the client-server experiment length
	// (paper: 2 h).
	ClientDuration float64 // seconds
	// Parallelism bounds the work-stealing runner fanning independent
	// experiment runs across cores; 0 selects GOMAXPROCS. Results are
	// byte-identical at any setting.
	Parallelism int
	// Recorder, when non-nil, receives core-track progress spans for the
	// experiment runners (one span per sweep case or stability benchmark,
	// tiled sequentially by simulated duration). Individual simulations
	// are not instrumented through the Lab: their timelines all start at
	// zero and would overlap. Runners that fan out across a worker pool
	// buffer per-index and emit in index order after the pool drains, so
	// the stream is deterministic regardless of Parallelism.
	Recorder *telemetry.Recorder
}

// NewLab returns a laboratory with the paper's dimensions.
func NewLab(seed uint64) *Lab {
	return &Lab{
		Machine:        machine.New(machine.PaperTestbed()),
		Seed:           seed,
		Runs:           10,
		ClientDuration: 7200,
	}
}

// QuickLab returns a scaled-down laboratory for tests and smoke runs:
// fewer stability repetitions, same structure. The client-server phase
// keeps the paper's two-hour length — the saturation dynamics need it,
// and simulated hours cost well under a second of wall time.
func QuickLab(seed uint64) *Lab {
	l := NewLab(seed)
	l.Runs = 4
	return l
}

// GCNames lists the collectors in the paper's order.
func GCNames() []string {
	return []string{"Serial", "ParNew", "Parallel", "ParallelOld", "CMS", "G1"}
}

// MainGCNames lists the three collectors of the client-server study.
func MainGCNames() []string { return []string{"ParallelOld", "CMS", "G1"} }

// boolNum renders a boolean as a numeric span attribute.
func boolNum(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// renderTable lays out rows as an aligned text table.
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
