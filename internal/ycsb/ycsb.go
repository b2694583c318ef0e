// Package ycsb models the Yahoo! Cloud Serving Benchmark client the paper
// drives Cassandra with (§2.2, §4.2): a workload generator with a loading
// phase and a transactions phase, zipfian key popularity, and per-operation
// latency capture.
//
// The transactions phase is reconstructed as an open-loop arrival process
// against the simulated server's timeline: every operation pays a service
// time (updates flat, reads stepping up as the database grows) and, when
// it lands inside a stop-the-world pause, absorbs the pause's remainder —
// the "pause shadow" that produces the latency spikes of Figure 5 and the
// band statistics of Tables 5–7.
package ycsb

import (
	"fmt"
	"math"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/xrand"
)

// OpType distinguishes the workload's operations.
type OpType int

// Operation types of the paper's custom workload (50% read, 50% update).
const (
	Read OpType = iota
	Update
)

// String returns the YCSB operation name.
func (t OpType) String() string {
	if t == Read {
		return "READ"
	}
	return "UPDATE"
}

// Op is one completed client operation.
type Op struct {
	Type OpType
	// Completed is the completion instant in seconds since experiment
	// start.
	Completed float64
	// LatencyMS is the observed latency in milliseconds.
	LatencyMS float64
	// Shadowed marks operations that overlapped a GC pause.
	Shadowed bool
}

// TransactionConfig parameterizes the transactions phase.
type TransactionConfig struct {
	// ReadFraction is the share of reads (paper: 0.5). Zero selects the
	// default 0.5; a negative value means update-only (explicit zero).
	ReadFraction float64
	// OpsPerSec is the mean arrival rate. The paper's runs collected over
	// a million points in ~8000 s (~150/s).
	OpsPerSec float64
	// KeySpace and ZipfTheta shape key popularity (YCSB defaults).
	KeySpace  uint64
	ZipfTheta float64
	// ReadBaseMS and UpdateBaseMS are the base service times on an empty
	// database.
	ReadBaseMS   float64
	UpdateBaseMS float64
	// StartAfter delays the first arrival (seconds): clients cannot
	// connect while the server replays its commitlog.
	StartAfter float64
	// Recorder, when non-nil, receives client-side telemetry: operation
	// counters and one client-track span per pause-shadowed operation
	// (the latency spikes of Figure 5, visible next to the GC spans that
	// caused them). Nil disables all telemetry at zero cost.
	Recorder *telemetry.Recorder
	Seed     uint64
}

func (c TransactionConfig) withDefaults() TransactionConfig {
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.ReadFraction < 0 {
		c.ReadFraction = -1 // normalized update-only marker
	}
	if c.OpsPerSec <= 0 {
		c.OpsPerSec = 150
	}
	if c.KeySpace == 0 {
		c.KeySpace = 10_000_000
	}
	if c.ZipfTheta <= 0 {
		c.ZipfTheta = 0.99
	}
	if c.ReadBaseMS <= 0 {
		c.ReadBaseMS = 0.62
	}
	if c.UpdateBaseMS <= 0 {
		c.UpdateBaseMS = 0.92
	}
	return c
}

// Trace is the transactions phase's completed-operation log plus the
// pause intervals it ran against.
type Trace struct {
	Ops    []Op
	Pauses []stats.Interval
}

// readStepMS returns the read service time's growth with database size:
// every doubling of the record count beyond two million adds a step
// (more SSTables and index levels to consult). This is the mechanism
// behind the "increasing steps" of the READ line in Figure 5.
func readStepMS(base float64, records int64) float64 {
	if records <= 2_000_000 {
		return base
	}
	steps := math.Floor(math.Log2(float64(records) / 2_000_000))
	return base * (1 + 0.45*steps)
}

// clientPauses extracts the pause intervals visible to the client:
// pauses that ended before it connected (commitlog replay) are
// invisible and excluded.
func clientPauses(server cassandra.Result, startAfter float64) []stats.Interval {
	var pauses []stats.Interval
	for _, e := range server.Log.Pauses() {
		if e.End().Seconds() <= startAfter {
			continue
		}
		pauses = append(pauses, stats.Interval{
			Start: e.Start.Seconds(),
			End:   e.End().Seconds(),
		})
	}
	return pauses
}

// TransactionTrace replays a transactions phase against a finished server
// run and returns the per-operation latency trace.
//
// Per operation it does only the draws: the service-time means are
// logged once, and the read means again only when the database has
// grown, which a cursor over the server's record curve detects because
// arrivals only move forward in time.
func TransactionTrace(server cassandra.Result, cfg TransactionConfig) Trace {
	cfg = cfg.withDefaults()
	pauses := clientPauses(server, cfg.StartAfter)
	horizon := server.TotalDuration.Seconds()
	tr := Trace{Pauses: pauses}
	if horizon > cfg.StartAfter && cfg.OpsPerSec > 0 {
		// Size the op log for the expected arrival count up front; the
		// Poisson spread around the mean is a few percent at these volumes.
		expect := int((horizon - cfg.StartAfter) * cfg.OpsPerSec)
		tr.Ops = make([]Op, 0, expect+expect/16+16)
	}
	rng := xrand.New(cfg.Seed).SplitLabeled("ycsb/txn/" + server.Config.CollectorName)
	zipf := xrand.NewZipf(rng.Split(), cfg.KeySpace, cfg.ZipfTheta)
	ctrRead := cfg.Recorder.Metrics().CounterHandle("ycsb.ops.read")
	ctrUpdate := cfg.Recorder.Metrics().CounterHandle("ycsb.ops.update")
	ctrShadowed := cfg.Recorder.Metrics().CounterHandle("ycsb.ops.shadowed")
	readFrac := cfg.ReadFraction
	if readFrac < 0 {
		readFrac = 0
	}
	updateMu := math.Log(cfg.UpdateBaseMS)
	// records is the database size at the latest arrival, as
	// server.RecordsAt gives it: the last curve point at or before it.
	var records int64
	var coldMu, hotMu float64
	setRecords := func(n int64) {
		records = n
		base := readStepMS(cfg.ReadBaseMS, n)
		// Hot keys are served from the row cache faster.
		coldMu, hotMu = math.Log(base), math.Log(base*0.85)
	}
	setRecords(0)
	curve := server.Records
	ri := 0
	pi := 0
	t := cfg.StartAfter
	for {
		t += rng.Exp(1 / cfg.OpsPerSec)
		if t >= horizon {
			break
		}
		var op Op
		if rng.Bool(readFrac) {
			op.Type = Read
			at := simtime.Time(simtime.Seconds(t))
			for ri < len(curve) && curve[ri].Time <= at {
				ri++
			}
			if ri > 0 && curve[ri-1].Records != records {
				setRecords(curve[ri-1].Records)
			}
			mu := coldMu
			if zipf.Scrambled() < cfg.KeySpace/10 {
				mu = hotMu
			}
			op.LatencyMS = rng.LogNormal(mu, 0.18)
		} else {
			op.Type = Update
			op.LatencyMS = rng.LogNormal(updateMu, 0.12)
		}
		for pi < len(pauses) && pauses[pi].End <= t {
			pi++
		}
		if pi < len(pauses) && t >= pauses[pi].Start && t < pauses[pi].End {
			op.LatencyMS += (pauses[pi].End - t) * 1e3
			op.Shadowed = true
		}
		op.Completed = t + op.LatencyMS/1e3
		tr.Ops = append(tr.Ops, op)
		if cfg.Recorder != nil {
			if op.Type == Read {
				ctrRead.Add(1)
			} else {
				ctrUpdate.Add(1)
			}
			if op.Shadowed {
				ctrShadowed.Add(1)
				cfg.Recorder.Span(telemetry.TrackClient, op.Type.String(),
					simtime.Time(simtime.Seconds(t)),
					simtime.Seconds(op.LatencyMS/1e3), 0,
					telemetry.Num("latency_ms", op.LatencyMS),
				)
			}
		}
	}
	return tr
}

// Samples extracts the latency samples of one operation type.
func (tr Trace) Samples(t OpType) []stats.LatencySample {
	n := 0
	for _, op := range tr.Ops {
		if op.Type == t {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]stats.LatencySample, 0, n)
	for _, op := range tr.Ops {
		if op.Type == t {
			out = append(out, stats.LatencySample{Completed: op.Completed, LatencyMS: op.LatencyMS})
		}
	}
	return out
}

// Bands computes the paper's Tables 5–7 statistics block for one
// operation type. Bands extend until the request share drops below
// minReqPct (the paper extends n "until the percentage of points became
// too close to 0").
func (tr Trace) Bands(t OpType, minReqPct float64) stats.BandReport {
	return stats.AnalyzeBands(tr.Samples(t), tr.Pauses, minReqPct)
}

// TopPoints returns the n highest-latency operations (the paper plots
// only the highest 10000 points of each chart for readability).
func (tr Trace) TopPoints(n int) []Op {
	if n <= 0 || len(tr.Ops) == 0 {
		return nil
	}
	// Selection via a simple threshold pass keeps the common case (n >=
	// len) trivial.
	if n >= len(tr.Ops) {
		out := make([]Op, len(tr.Ops))
		copy(out, tr.Ops)
		return out
	}
	lat := make([]float64, len(tr.Ops))
	for i, op := range tr.Ops {
		lat[i] = op.LatencyMS
	}
	thresh, err := stats.Percentile(lat, 100*(1-float64(n)/float64(len(tr.Ops))))
	if err != nil {
		return nil
	}
	var out []Op
	for _, op := range tr.Ops {
		if op.LatencyMS >= thresh && len(out) < n {
			out = append(out, op)
		}
	}
	return out
}

// Describe summarizes the trace.
func (tr Trace) Describe() string {
	reads, updates, shadowed := 0, 0, 0
	for _, op := range tr.Ops {
		if op.Type == Read {
			reads++
		} else {
			updates++
		}
		if op.Shadowed {
			shadowed++
		}
	}
	return fmt.Sprintf("%d ops (%d reads, %d updates), %d shadowed by %d pauses",
		len(tr.Ops), reads, updates, shadowed, len(tr.Pauses))
}
