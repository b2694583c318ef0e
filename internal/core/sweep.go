package core

import (
	"fmt"

	"jvmgc/internal/dacapo"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
)

// SweepCase is one heap/young configuration of Table 3.
type SweepCase struct {
	Heap  machine.Bytes
	Young machine.Bytes
	// SizeFactor scales the benchmark input (the paper's small-heap rows
	// are only consistent with a reduced DaCapo input size; see
	// DESIGN.md).
	SizeFactor float64
}

// Table3Cases returns the paper's exact heap/young grid for the H2 study.
func Table3Cases() []SweepCase {
	return []SweepCase{
		{64 * machine.GB, 6 * machine.GB, 1},
		{64 * machine.GB, 12 * machine.GB, 1},
		{64 * machine.GB, 24 * machine.GB, 1},
		{64 * machine.GB, 48 * machine.GB, 1},
		{machine.GB, 200 * machine.MB, 0.18},
		{machine.GB, 100 * machine.MB, 0.18},
		{500 * machine.MB, 200 * machine.MB, 0.18},
		{500 * machine.MB, 100 * machine.MB, 0.18},
		{250 * machine.MB, 200 * machine.MB, 0.18},
		{250 * machine.MB, 100 * machine.MB, 0.18},
	}
}

// SweepRow is one Table 3 row.
type SweepRow struct {
	Case       SweepCase
	Pauses     int
	FullGCs    int
	AvgPauseS  float64
	TotalPause float64
	TotalExecS float64
}

// SweepTable is the Table 3 reproduction for one benchmark + collector.
type SweepTable struct {
	Benchmark string
	Collector string
	Rows      []SweepRow
}

// TableHeapYoungSweep reproduces Table 3: pause statistics for one
// benchmark under one collector across the heap/young grid. The paper
// studies h2 with ConcurrentMarkSweep (and notes ParallelOld "behaved as
// expected"); both are a call away.
func (l *Lab) TableHeapYoungSweep(bench, collectorName string, cases []SweepCase) (SweepTable, error) {
	b, err := dacapo.ByName(bench)
	if err != nil {
		return SweepTable{}, err
	}
	out := SweepTable{Benchmark: bench, Collector: collectorName}
	var cursor simtime.Time
	for _, c := range cases {
		cfg := dacapo.BaselineConfig(b)
		cfg.Machine = l.Machine
		cfg.CollectorName = collectorName
		cfg.Heap = c.Heap
		cfg.Young = c.Young
		cfg.YoungExplicit = true
		cfg.SystemGC = false
		cfg.SizeFactor = c.SizeFactor
		cfg.Seed = l.Seed
		res, err := dacapo.Run(cfg)
		if err != nil {
			return SweepTable{}, err
		}
		p, full := res.Log.CountPauses()
		if l.Recorder != nil {
			l.Recorder.Span(telemetry.TrackCore,
				fmt.Sprintf("sweep %v-%v", c.Heap, c.Young),
				cursor, res.Total, 0,
				telemetry.Str("benchmark", bench),
				telemetry.Str(telemetry.AttrCollector, collectorName),
				telemetry.Num("pauses", float64(p)),
				telemetry.Num("full_gcs", float64(full)),
			)
			l.Recorder.Metrics().Add("core.sweep.cases", 1)
			cursor = cursor.Add(res.Total)
		}
		out.Rows = append(out.Rows, SweepRow{
			Case:       c,
			Pauses:     p,
			FullGCs:    full,
			AvgPauseS:  res.Log.AvgPause().Seconds(),
			TotalPause: res.Log.TotalPause().Seconds(),
			TotalExecS: res.Total.Seconds(),
		})
	}
	return out, nil
}

// Render prints the table in the paper's Table 3 format.
func (t SweepTable) Render() string {
	header := []string{"Heap-YoungGen size", "#pauses (full)", "AVG pause (s)", "Total pause (s)", "Total exec (s)"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%v-%v", r.Case.Heap, r.Case.Young),
			fmt.Sprintf("%d(%d)", r.Pauses, r.FullGCs),
			fmt.Sprintf("%.2f", r.AvgPauseS),
			fmt.Sprintf("%.2f", r.TotalPause),
			fmt.Sprintf("%.2f", r.TotalExecS),
		})
	}
	return fmt.Sprintf("Table 3: statistics for the %s benchmark (%s) with different heap and young sizes\n",
		t.Benchmark, t.Collector) + renderTable(header, rows)
}

// InversionObserved reports the paper's Table 3 anomaly: within the rows
// sharing the largest heap, the smallest young generation shows a larger
// average pause than a larger young generation.
func (t SweepTable) InversionObserved() bool {
	var maxHeap machine.Bytes
	for _, r := range t.Rows {
		if r.Case.Heap > maxHeap {
			maxHeap = r.Case.Heap
		}
	}
	var smallest, larger *SweepRow
	for i := range t.Rows {
		r := &t.Rows[i]
		if r.Case.Heap != maxHeap {
			continue
		}
		if smallest == nil || r.Case.Young < smallest.Case.Young {
			smallest = r
		}
		if larger == nil || r.Case.Young > larger.Case.Young {
			larger = r
		}
	}
	if smallest == nil || larger == nil || smallest == larger {
		return false
	}
	return smallest.AvgPauseS > larger.AvgPauseS*1.5
}
