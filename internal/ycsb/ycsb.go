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
	"math"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/xrand"
)

// OpType distinguishes the workload's operations.
type OpType uint8

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

// Op is one completed client operation. Its fields are ordered so that
// the two flags share one word: a trace holds about a million of them.
type Op struct {
	// Completed is the completion instant in seconds since experiment
	// start.
	Completed float64
	// LatencyMS is the observed latency in milliseconds.
	LatencyMS float64
	Type      OpType
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
	// Pipelined makes the operations' random draws on a second
	// goroutine, a chunk or two ahead of the latency math, for a caller
	// with a core to spare. The trace is the same bits either way.
	Pipelined bool
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

// chunkOps is how many operations the generator draws at a time.
const chunkOps = 4096

// draw is what one operation takes from the random streams: the
// uniform of the arrival gap's exponential, the read/update choice, for
// a read whether its zipfian key is hot, and the accepted polar pair of
// the latency's normal draw.
type draw struct {
	gapU      float64
	u, s      float64
	read, hot bool
}

// drawer is the generator's first stage: it makes, in stream order,
// every draw an operation consumes, and the key's zipfian transform.
// It never looks at the clock, so it can run ahead of the horizon; its
// streams are local to the trace, so the draws it makes past the
// horizon perturb nothing.
type drawer struct {
	rng      *xrand.Rand
	zipf     *xrand.Zipf
	readFrac float64
	hotBelow uint64
}

// fill makes the draws of len(c) operations.
func (d *drawer) fill(c []draw) {
	for i := range c {
		x := &c[i]
		x.gapU = d.rng.PositiveFloat64()
		x.read = d.rng.Bool(d.readFrac)
		// The zipfian key comes from its own stream, so drawing it
		// before the latency's pair keeps both streams' order.
		x.hot = x.read && d.zipf.ScrambledAt(d.zipf.Uniform()) < d.hotBelow
		x.u, x.s = d.rng.PolarPair()
	}
}

// replayer is the generator's second stage: it turns draws into
// operations in order against the server's timeline, doing the
// transforms of the arrival gap and of the latency.
type replayer struct {
	tr       Trace
	cfg      TransactionConfig
	horizon  float64
	mean     float64 // mean arrival gap, seconds
	updateMu float64
	// records is the database size at the latest arrival: the last
	// record-curve point at or before it.
	records       int64
	coldMu, hotMu float64
	curve         []cassandra.RecordPoint
	ri, pi        int
	t             float64
	ctrRead       *telemetry.CounterHandle
	ctrUpdate     *telemetry.CounterHandle
	ctrShadowed   *telemetry.CounterHandle
}

func (p *replayer) setRecords(n int64) {
	p.records = n
	base := readStepMS(p.cfg.ReadBaseMS, n)
	// Hot keys are served from the row cache faster.
	p.coldMu, p.hotMu = math.Log(base), math.Log(base*0.85)
}

// replay appends the operations of c's draws to the trace and reports
// whether the next arrival may still fall before the horizon.
func (p *replayer) replay(c []draw) bool {
	pauses := p.tr.Pauses
	for i := range c {
		x := &c[i]
		p.t += p.mean * xrand.ExpOf(x.gapU)
		t := p.t
		if t >= p.horizon {
			return false
		}
		var op Op
		if x.read {
			op.Type = Read
			at := simtime.Time(simtime.Seconds(t))
			for p.ri < len(p.curve) && p.curve[p.ri].Time <= at {
				p.ri++
			}
			if p.ri > 0 && p.curve[p.ri-1].Records != p.records {
				p.setRecords(p.curve[p.ri-1].Records)
			}
			mu := p.coldMu
			if x.hot {
				mu = p.hotMu
			}
			op.LatencyMS = xrand.LogNormalOf(mu, 0.18, x.u, x.s)
		} else {
			op.Type = Update
			op.LatencyMS = xrand.LogNormalOf(p.updateMu, 0.12, x.u, x.s)
		}
		for p.pi < len(pauses) && pauses[p.pi].End <= t {
			p.pi++
		}
		if p.pi < len(pauses) && t >= pauses[p.pi].Start && t < pauses[p.pi].End {
			op.LatencyMS += (pauses[p.pi].End - t) * 1e3
			op.Shadowed = true
		}
		op.Completed = t + op.LatencyMS/1e3
		p.tr.Ops = append(p.tr.Ops, op)
		if rec := p.cfg.Recorder; rec != nil {
			if op.Type == Read {
				p.ctrRead.Add(1)
			} else {
				p.ctrUpdate.Add(1)
			}
			if op.Shadowed {
				p.ctrShadowed.Add(1)
				rec.Span(telemetry.TrackClient, op.Type.String(),
					simtime.Time(simtime.Seconds(t)),
					simtime.Seconds(op.LatencyMS/1e3), 0,
					telemetry.Num("latency_ms", op.LatencyMS),
				)
			}
		}
	}
	return true
}

// TransactionTrace replays a transactions phase against a finished server
// run and returns the per-operation latency trace.
//
// It works in chunks of chunkOps operations, in two stages: a drawer
// makes every random draw of a chunk and the keys' zipfian math, and a
// replayer turns the chunk's draws into operations, doing the clock,
// the exponential and log-normal math and the pause shadow. The
// service-time means are logged once, and the read means again only
// when the database has grown, which a cursor over the server's record
// curve detects because arrivals only move forward in time. With
// cfg.Pipelined the drawer runs on its own goroutine, which has exited
// by the time TransactionTrace returns; otherwise the stages alternate
// on the caller's. The two stages split the work about evenly, and
// either schedule gives the same operations.
func TransactionTrace(server cassandra.Result, cfg TransactionConfig) Trace {
	cfg = cfg.withDefaults()
	horizon := server.TotalDuration.Seconds()
	p := replayer{
		tr:          Trace{Pauses: clientPauses(server, cfg.StartAfter)},
		cfg:         cfg,
		horizon:     horizon,
		mean:        1 / cfg.OpsPerSec,
		updateMu:    math.Log(cfg.UpdateBaseMS),
		curve:       server.Records,
		t:           cfg.StartAfter,
		ctrRead:     cfg.Recorder.Metrics().CounterHandle("ycsb.ops.read"),
		ctrUpdate:   cfg.Recorder.Metrics().CounterHandle("ycsb.ops.update"),
		ctrShadowed: cfg.Recorder.Metrics().CounterHandle("ycsb.ops.shadowed"),
	}
	if horizon > cfg.StartAfter && cfg.OpsPerSec > 0 {
		// Size the op log for the expected arrival count up front; the
		// Poisson spread around the mean is a few percent at these volumes.
		expect := int((horizon - cfg.StartAfter) * cfg.OpsPerSec)
		p.tr.Ops = make([]Op, 0, expect+expect/16+16)
	}
	p.setRecords(0)
	rng := xrand.New(cfg.Seed).SplitLabeled("ycsb/txn/" + server.Config.CollectorName)
	d := drawer{
		rng:      rng,
		zipf:     xrand.NewZipf(rng.Split(), cfg.KeySpace, cfg.ZipfTheta),
		readFrac: max(cfg.ReadFraction, 0),
		hotBelow: cfg.KeySpace / 10,
	}
	if cfg.Pipelined {
		pipeline(d, &p)
	} else {
		c := make([]draw, chunkOps)
		for {
			d.fill(c)
			if !p.replay(c) {
				break
			}
		}
	}
	return p.tr
}

// pipelineChunks is how many chunk buffers the pipelined schedule
// cycles: one being replayed and up to two drawn ahead of it.
const pipelineChunks = 3

// pipeline runs d on a second goroutine, pipelineChunks buffers ahead at
// most, and p on the caller's until p reaches the horizon. Buffers
// travel drawer → replayer on full and back on free; both channels have
// room for every buffer, so no send blocks. Closing free stops the
// drawer after at most the chunk it is drawing, and pipeline returns
// once the drawer has closed full.
func pipeline(d drawer, p *replayer) {
	free := make(chan []draw, pipelineChunks)
	full := make(chan []draw, pipelineChunks)
	for range pipelineChunks {
		free <- make([]draw, chunkOps)
	}
	go func() {
		defer close(full)
		for c := range free {
			d.fill(c)
			full <- c
		}
	}()
	for c := range full {
		if !p.replay(c) {
			break
		}
		free <- c
	}
	close(free)
	for range full {
	}
}

// Bands computes the paper's Tables 5–7 statistics block for one
// operation type. Bands extend until the request share drops below
// minReqPct (the paper extends n "until the percentage of points became
// too close to 0"). It is one entry of BandsByType: the walks that
// serve one type serve both at about the same cost.
func (tr Trace) Bands(t OpType, minReqPct float64) stats.BandReport {
	return tr.BandsByType(minReqPct)[t]
}

// BandsByType computes the Bands block of both operation types, indexed
// by OpType, in two walks over the trace: one folds each type's
// Welford, the other feeds each type's band counter. Both index by the
// operation's type instead of branching on it (op.Type&1 is op.Type,
// with no bounds check), which a trace of mixed types would mispredict.
func (tr Trace) BandsByType(minReqPct float64) [2]stats.BandReport {
	var w [2]stats.Welford
	for i := range tr.Ops {
		op := &tr.Ops[i]
		w[op.Type&1].Add(op.LatencyMS)
	}
	c := [2]stats.BandCounter{
		stats.NewBandCounter(w[Read], tr.Pauses),
		stats.NewBandCounter(w[Update], tr.Pauses),
	}
	for i := range tr.Ops {
		op := &tr.Ops[i]
		c[op.Type&1].Add(stats.LatencySample{Completed: op.Completed, LatencyMS: op.LatencyMS})
	}
	return [2]stats.BandReport{c[Read].Report(minReqPct), c[Update].Report(minReqPct)}
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
