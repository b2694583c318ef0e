package core

import (
	"fmt"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/ycsb"
)

// WorkloadComparisonRow is one (collector, workload) cell.
type WorkloadComparisonRow struct {
	Collector string
	Workload  ycsb.CoreWorkload
	AvgMS     float64
	MaxMS     float64
	// TailPct is the share of requests beyond 8x the average — the
	// GC-shadow band.
	TailPct float64
}

// WorkloadComparison extends §4.2 across YCSB's core workloads: the same
// server run, replayed under workloads A, B, C, E and F, shows how much
// of the GC pause problem each access pattern exposes (scan-heavy
// workloads amortize pauses over fewer, longer requests; read-only
// workloads feel every pause as a latency spike).
type WorkloadComparison struct {
	Rows []WorkloadComparisonRow
}

// WorkloadComparisonStudy runs the §4.2 server once per collector and
// replays each core workload against its timeline.
func (l *Lab) WorkloadComparisonStudy() (WorkloadComparison, error) {
	var out WorkloadComparison
	workloads := []ycsb.CoreWorkload{
		ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadE, ycsb.WorkloadF,
	}
	for _, gc := range MainGCNames() {
		srv, err := l.clientServerConfigRun(gc)
		if err != nil {
			return out, err
		}
		for _, w := range workloads {
			cfg, err := w.Config(ycsb.TransactionConfig{
				OpsPerSec:  150,
				StartAfter: srv.ReplayDuration.Seconds(),
				Seed:       l.Seed + 123,
				Pipelined:  l.workers() > 1,
			})
			if err != nil {
				return out, err
			}
			trace := ycsb.TransactionTrace(srv, cfg)
			// The dominant operation type carries the workload's latency
			// story.
			opType := ycsb.Read
			if w == ycsb.WorkloadF {
				opType = ycsb.Update
			}
			rep := trace.Bands(opType, 0.01)
			tail := 0.0
			for _, b := range rep.Above {
				if b.Label == ">8x AVG" {
					tail = b.Reqs
				}
			}
			out.Rows = append(out.Rows, WorkloadComparisonRow{
				Collector: gc, Workload: w,
				AvgMS: rep.AvgMS, MaxMS: rep.MaxMS, TailPct: tail,
			})
		}
	}
	return out, nil
}

// clientServerConfigRun runs the §4.2 server for one collector.
func (l *Lab) clientServerConfigRun(gc string) (cassandra.Result, error) {
	return cassandra.Run(l.clientServerConfig(gc))
}

// Render prints the comparison.
func (s WorkloadComparison) Render() string {
	header := []string{"GC", "Workload", "avg (ms)", "max (ms)", ">8x avg (%reqs)"}
	var rows [][]string
	for _, r := range s.Rows {
		rows = append(rows, []string{
			r.Collector, r.Workload.Describe(),
			fmt.Sprintf("%.3f", r.AvgMS), fmt.Sprintf("%.1f", r.MaxMS),
			fmt.Sprintf("%.3f", r.TailPct),
		})
	}
	return "YCSB core-workload comparison (§4.2 extended): who feels the pauses?\n" +
		renderTable(header, rows)
}
