package core

import (
	"fmt"
	"sort"

	"jvmgc/internal/dacapo"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/telemetry"
)

// StabilityRow is one benchmark's Table 2 entry.
type StabilityRow struct {
	Benchmark string
	// FinalRSD and TotalRSD are relative standard deviations (%) of the
	// final-iteration duration and the total execution time across runs.
	FinalRSD float64
	TotalRSD float64
	// Crashed marks benchmarks that never completed a run.
	Crashed bool
	// Stable applies the paper's screen: kept when at least one metric is
	// within 5%.
	Stable bool
}

// StabilityTable is the reproduction of Table 2 plus the screening
// verdict for the whole suite.
type StabilityTable struct {
	Rows []StabilityRow
}

// TableStability reruns the paper's §3.2 stability screening: every
// DaCapo benchmark, Runs repetitions of 10 iterations under the baseline
// configuration with a forced system GC between iterations.
func (l *Lab) TableStability() StabilityTable {
	benches := dacapo.All()
	rows := make([]StabilityRow, len(benches))
	// Per-benchmark simulated time, buffered here and emitted as core
	// spans in index order after the pool drains (the pool's completion
	// order is scheduling-dependent; the telemetry stream must not be).
	simTime := make([]simtime.Duration, len(benches))
	// Benchmarks are independent; fan them out.
	_ = l.forEach(len(benches), func(i int) error {
		b := benches[i]
		row := StabilityRow{Benchmark: b.Name}
		defer func() { rows[i] = row }()
		if b.Crashes {
			row.Crashed = true
			return nil
		}
		var finals, totals []float64
		for r := 0; r < l.Runs; r++ {
			cfg := dacapo.BaselineConfig(b)
			cfg.Machine = l.Machine
			cfg.Seed = l.Seed + uint64(r)*7919
			res, err := dacapo.Run(cfg)
			if err != nil {
				row.Crashed = true
				return nil
			}
			finals = append(finals, res.Final().Seconds())
			totals = append(totals, res.Total.Seconds())
			simTime[i] += res.Total
		}
		row.FinalRSD = stats.RSD(finals)
		row.TotalRSD = stats.RSD(totals)
		row.Stable = row.FinalRSD <= 5 || row.TotalRSD <= 5
		return nil
	})
	if l.Recorder != nil {
		var cursor simtime.Time
		for i, b := range benches {
			if rows[i].Crashed {
				continue
			}
			l.Recorder.Span(telemetry.TrackCore, "stability "+b.Name,
				cursor, simTime[i], 0,
				telemetry.Num("runs", float64(l.Runs)),
				telemetry.Num("final_rsd", rows[i].FinalRSD),
				telemetry.Num("stable", boolNum(rows[i].Stable)),
			)
			l.Recorder.Metrics().Add("core.stability.benchmarks", 1)
			cursor = cursor.Add(simTime[i])
		}
	}
	out := StabilityTable{Rows: rows}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Benchmark < out.Rows[j].Benchmark })
	return out
}

// StableNames returns the benchmarks that pass the screen, in table
// order.
func (t StabilityTable) StableNames() []string {
	var out []string
	for _, r := range t.Rows {
		if r.Stable && !r.Crashed {
			out = append(out, r.Benchmark)
		}
	}
	return out
}

// Render prints the table in the paper's Table 2 format (selected subset
// first, then the excluded rest).
func (t StabilityTable) Render() string {
	header := []string{"Benchmark", "Final iteration (%)", "Total execution time (%)", "Verdict"}
	var rows [][]string
	for _, r := range t.Rows {
		verdict := "excluded (unstable)"
		switch {
		case r.Crashed:
			verdict = "crashed"
		case r.Stable:
			verdict = "selected"
		}
		f, tot := "-", "-"
		if !r.Crashed {
			f = fmt.Sprintf("%.1f", r.FinalRSD)
			tot = fmt.Sprintf("%.1f", r.TotalRSD)
		}
		rows = append(rows, []string{r.Benchmark, f, tot, verdict})
	}
	return "Table 2: relative standard deviation, total execution time and final iteration\n" +
		renderTable(header, rows)
}
