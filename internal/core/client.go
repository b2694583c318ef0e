package core

import (
	"fmt"
	"strings"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/ycsb"
)

// ClientExperiment is one §4.2 run: a server under one collector serving
// the 50/50 read-update workload, with the client latency trace of every
// operation.
type ClientExperiment struct {
	Collector string
	Server    cassandra.Result
	Trace     ycsb.Trace
	Read      stats.BandReport
	Update    stats.BandReport
}

// clientServerConfig returns the §4.2 server configuration: the loaded
// database serving the custom 50% read / 50% update workload. Unlike the
// stress test, the node runs its normal flushing configuration — the
// paper's client-side charts show sub-second pauses for all three
// collectors.
func (l *Lab) clientServerConfig(gc string) cassandra.Config {
	cfg := cassandra.DefaultConfig(gc, simtime.Seconds(l.ClientDuration*1.08))
	cfg.Machine = l.Machine
	cfg.WriteFraction = 0.5
	// The production-configured node keeps a modest on-heap footprint per
	// written record (memtable arenas and page cache hold the rest), so
	// pauses stay rare and sub-second — the regime of the paper's
	// client-side charts.
	cfg.HeapPerRecord = 150
	cfg.TransientPerOp = 10 * machine.KB
	cfg.RetentionFrac = 0.10
	cfg.PreloadBytes = 4 * machine.GB // the database loaded before the run
	cfg.Seed = l.Seed + 4242
	return cfg
}

// ClientLatencyStudy reproduces Figure 5 and Tables 5–7 for one
// collector: run the server, replay the YCSB transactions phase against
// its timeline, and compute the latency-band statistics.
func (l *Lab) ClientLatencyStudy(gc string) (ClientExperiment, error) {
	srv, err := cassandra.Run(l.clientServerConfig(gc))
	if err != nil {
		return ClientExperiment{}, err
	}
	trace := ycsb.TransactionTrace(srv, ycsb.TransactionConfig{
		ReadFraction: 0.5,
		OpsPerSec:    150,
		StartAfter:   srv.ReplayDuration.Seconds(),
		Seed:         l.Seed + 99,
		Pipelined:    l.workers() > 1,
	})
	bands := trace.BandsByType(0.01)
	return ClientExperiment{
		Collector: gc,
		Server:    srv,
		Trace:     trace,
		Read:      bands[ycsb.Read],
		Update:    bands[ycsb.Update],
	}, nil
}

// ClientLatencyStudyAll runs the study for the three main collectors on
// the sweep runner, most expensive collector first; results keep
// MainGCNames order regardless of parallelism.
func (l *Lab) ClientLatencyStudyAll() ([]ClientExperiment, error) {
	gcs := MainGCNames()
	out := make([]ClientExperiment, len(gcs))
	cost := func(i int) float64 { return collectorCost(gcs[i]) }
	err := l.forEachCost(len(gcs), cost, func(i int) error {
		exp, err := l.ClientLatencyStudy(gcs[i])
		if err != nil {
			return err
		}
		out[i] = exp
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RenderBands prints the Tables 5–7 block for the experiment.
func (e ClientExperiment) RenderBands() string {
	header := []string{"", "READ", "UPDATE"}
	row := func(label string, r, u float64) []string {
		return []string{label, fmt.Sprintf("%.3f", r), fmt.Sprintf("%.3f", u)}
	}
	rows := [][]string{
		row("AVG(ms)", e.Read.AvgMS, e.Update.AvgMS),
		row("MAX(ms)", e.Read.MaxMS, e.Update.MaxMS),
		row("MIN(ms)", e.Read.MinMS, e.Update.MinMS),
		row("0.5x-1.5x AVG (%reqs)", e.Read.Normal.Reqs, e.Update.Normal.Reqs),
		row("0.5x-1.5x AVG (%GCs)", e.Read.Normal.GCs, e.Update.Normal.GCs),
	}
	n := len(e.Read.Above)
	if len(e.Update.Above) > n {
		n = len(e.Update.Above)
	}
	band := func(bands []stats.BandRow, i int) (string, float64, float64) {
		if i >= len(bands) {
			return "", 0, 0
		}
		return bands[i].Label, bands[i].Reqs, bands[i].GCs
	}
	for i := 0; i < n; i++ {
		label, rr, rg := band(e.Read.Above, i)
		ulabel, ur, ug := band(e.Update.Above, i)
		if label == "" {
			label = ulabel
		}
		rows = append(rows,
			row(label+" (%reqs)", rr, ur),
			row(label+" (%GCs)", rg, ug),
		)
	}
	return fmt.Sprintf("Latency statistics for READ and UPDATE operations, %s GC\n", e.Collector) +
		renderTable(header, rows)
}

// RenderFigure5 prints the Figure 5 data for the experiment: the highest
// `top` latency points (the paper plots 10000) plus the GC pause series.
func (e ClientExperiment) RenderFigure5(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 data: response time under %s (top %d points)\n", e.Collector, top)
	for _, op := range e.Trace.TopPoints(top) {
		fmt.Fprintf(&b, "%s %.1f %.3f\n", op.Type, op.Completed, op.LatencyMS)
	}
	for _, p := range e.Trace.Pauses {
		fmt.Fprintf(&b, "GC %.1f %.3f\n", p.Start, (p.End-p.Start)*1e3)
	}
	return b.String()
}

// PeaksCoincideWithGCs reports the paper's §4.2 second observation: the
// share of the top-N latency points whose service interval overlapped a
// GC pause.
func (e ClientExperiment) PeaksCoincideWithGCs(top int) float64 {
	points := e.Trace.TopPoints(top)
	if len(points) == 0 {
		return 0
	}
	hit := 0
	for _, op := range points {
		if op.Shadowed {
			hit++
		}
	}
	return 100 * float64(hit) / float64(len(points))
}
