// Package cassandra models an Apache-Cassandra-2.0-style storage node
// running inside the simulated JVM: a memtable absorbing writes, a commit
// log, SSTable flushes, and commitlog replay at startup (§2.2 of the
// paper).
//
// The node's memory shape is what the paper's server-side experiments
// probe: every write materializes Java objects in the memtable (long-lived
// young allocation that survives and promotes), the memtable is released
// on flush in the default configuration, and in the paper's "stress test"
// configuration the memtable and commitlog budgets equal the heap, so
// nothing is ever released and the old generation fills until the
// collector's worst-case behaviour shows (a 4-minute ParallelOld full
// collection; 2–3.5 s CMS/G1 pauses).
package cassandra

import (
	"fmt"
	"math"

	"jvmgc/internal/event"
	"jvmgc/internal/gclog"
	"jvmgc/internal/gcmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
)

// Config parameterizes a Cassandra node simulation.
type Config struct {
	// CollectorName selects the GC (the paper runs ParallelOld, CMS, G1).
	CollectorName string
	Machine       *machine.Machine
	// Costs overrides the collector cost model (ablation studies); nil
	// selects the calibrated defaults.
	Costs *gcmodel.Costs
	// G1PauseTarget overrides G1's -XX:MaxGCPauseMillis goal; zero keeps
	// the 200 ms default. Ignored by other collectors.
	G1PauseTarget simtime.Duration
	// Heap and Young mirror the paper's server configuration: 64 GB heap,
	// 12 GB young generation.
	Heap  machine.Bytes
	Young machine.Bytes

	// ClientThreads is the number of concurrent client connections
	// (paper: 100 for the loading phase).
	ClientThreads int
	// OpsPerSec is the sustained operation rate the client offers while
	// the server is running (closed-loop saturation throughput).
	OpsPerSec float64
	// WriteFraction is the share of operations that insert/update
	// (loading phase: 1.0; paper's custom workload: 0.5). Zero or
	// negative selects the loading-phase default of 1.0.
	WriteFraction float64

	// RecordSize is the YCSB record payload (default 1 KB).
	RecordSize machine.Bytes
	// HeapPerRecord is the Java-object footprint a record occupies in the
	// memtable (object headers, boxing, index entries — several times the
	// payload).
	HeapPerRecord machine.Bytes
	// TransientPerOp is the garbage allocated to serve one operation
	// (request parsing, response buffers).
	TransientPerOp machine.Bytes
	// MediumFrac is the fraction of transient allocation that lives for
	// MeanMedium before dying (per-request state, compaction buffers,
	// hinted handoffs). Medium garbage that survives a young collection
	// promotes and then dies in the old generation — reclaimed
	// concurrently by CMS/G1 but accumulated by the throughput
	// collectors until a full collection.
	MediumFrac float64
	// MeanMedium is the medium component's mean lifetime.
	MeanMedium simtime.Duration

	// MemtableBudget is the flush threshold. The stress configuration
	// sets it to the heap size, so a flush never happens.
	MemtableBudget machine.Bytes
	// RetentionFrac is the fraction of flushed memtable data retained in
	// memory afterwards (key cache, row cache, index summaries, bloom
	// filters).
	RetentionFrac float64

	// PreloadBytes is the memtable volume already in the commitlog at
	// startup; the node replays it into memory before serving (the
	// paper's stress test pre-loads the database).
	PreloadBytes machine.Bytes
	// ReplayOpsPerSec is the replay speed (commitlog apply is faster than
	// client-driven writes).
	ReplayOpsPerSec float64

	// CompactionThreads is the CPU the storage engine spends merging
	// SSTables whenever at least CompactionThreshold tables await
	// compaction (0 threads disables compaction modelling).
	CompactionThreads   int
	CompactionThreshold int

	// Duration is the client-driven part of the run (paper: 1 h / 2 h).
	Duration simtime.Duration

	// Recorder, when non-nil, receives the node's flight-recorder stream:
	// the server JVM's GC spans and time series plus storage-engine spans
	// (commitlog replay, memtable flushes, compactions) on the cassandra
	// track. Nil disables all telemetry at zero cost.
	Recorder *telemetry.Recorder

	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.CollectorName == "" {
		c.CollectorName = "ParallelOld"
	}
	if c.Machine == nil {
		c.Machine = machine.New(machine.PaperTestbed())
	}
	if c.Heap <= 0 {
		c.Heap = 64 * machine.GB
	}
	if c.Young <= 0 {
		c.Young = 12 * machine.GB
	}
	if c.ClientThreads <= 0 {
		c.ClientThreads = 100
	}
	if c.WriteFraction <= 0 {
		c.WriteFraction = 1.0
	}
	if c.OpsPerSec <= 0 {
		c.OpsPerSec = 7000
	}
	if c.RecordSize <= 0 {
		c.RecordSize = machine.KB
	}
	if c.HeapPerRecord <= 0 {
		c.HeapPerRecord = 3 * machine.KB
	}
	if c.TransientPerOp <= 0 {
		c.TransientPerOp = 20 * machine.KB
	}
	if c.MediumFrac <= 0 {
		c.MediumFrac = 0.15
	}
	if c.MeanMedium <= 0 {
		c.MeanMedium = 5 * simtime.Second
	}
	if c.MemtableBudget <= 0 {
		c.MemtableBudget = 4 * machine.GB
	}
	if c.RetentionFrac <= 0 {
		c.RetentionFrac = 0.25
	}
	if c.ReplayOpsPerSec <= 0 {
		c.ReplayOpsPerSec = 4 * c.OpsPerSec
	}
	if c.CompactionThreads < 0 {
		c.CompactionThreads = 0
	}
	if c.CompactionThreshold <= 0 {
		c.CompactionThreshold = 4
	}
	if c.Duration <= 0 {
		c.Duration = 2 * simtime.Hour
	}
	return c
}

// DefaultConfig returns the paper's default-configuration experiment
// (§4.1 first bullet): flushing enabled, empty database at start.
func DefaultConfig(collectorName string, duration simtime.Duration) Config {
	c := Config{CollectorName: collectorName, Duration: duration}.withDefaults()
	return c
}

// StressConfig returns the paper's stress-test configuration (§4.1 second
// bullet): memtable and commitlog sized like the heap (never flush), the
// database pre-loaded so replay partially fills memory before the
// benchmark starts.
func StressConfig(collectorName string, duration simtime.Duration) Config {
	c := Config{CollectorName: collectorName, Duration: duration}.withDefaults()
	c.MemtableBudget = c.Heap // never flush
	// A node that keeps its whole dataset on-heap sustains far fewer
	// operations per second, each allocating more (wide memtable lookups,
	// compaction backlog), and per-request state lives longer.
	c.OpsPerSec = 1000
	c.TransientPerOp = 80 * machine.KB
	c.MediumFrac = 0.05
	c.MeanMedium = 10 * simtime.Minute
	c.PreloadBytes = 22 * machine.GB
	return c
}

// FlushEvent records one memtable flush.
type FlushEvent struct {
	Time     simtime.Time
	Released machine.Bytes
}

// RecordPoint samples the database size over time (drives the read-path
// service time's growth steps).
type RecordPoint struct {
	Time    simtime.Time
	Records int64
}

// Result is the outcome of one server run.
type Result struct {
	Config Config
	// Log is the server JVM's GC log.
	Log *gclog.Log
	// ReplayDuration is the startup commitlog replay time (included in
	// the timeline before the client phase).
	ReplayDuration simtime.Duration
	// TotalDuration is replay plus the client-driven phase.
	TotalDuration simtime.Duration
	// Flushes lists the memtable flushes that occurred.
	Flushes []FlushEvent
	// Compactions counts the background SSTable merges that ran.
	Compactions int
	// Records samples the database size over time.
	Records []RecordPoint
	// FinalOldLive is the old-generation live volume at the end.
	FinalOldLive machine.Bytes
	// OpsCompleted estimates the operations served during the client
	// phase (reduced by stop-the-world time).
	OpsCompleted int64
}

// Run simulates the node: optional commitlog replay, then Duration of
// client-driven load, flushing per configuration. It is the one-node
// sequential form of NewNode/Start: the node is mounted on a private
// wheel and stepped to completion on the calling goroutine.
func Run(cfg Config) (Result, error) {
	n, err := NewNode(cfg, event.New())
	if err != nil {
		return Result{}, err
	}
	n.Start()
	n.clock.RunAll()
	return n.Result(), nil
}

// RecordsAt returns the database size at instant t by stepping the sample
// curve.
func (r Result) RecordsAt(t simtime.Time) int64 {
	n := int64(0)
	for _, p := range r.Records {
		if p.Time > t {
			break
		}
		n = p.Records
	}
	return n
}

// Describe summarizes the run for logs and CLI output.
func (r Result) Describe() string {
	p, full := r.Log.CountPauses()
	return fmt.Sprintf("%s: %v total (%v replay), %d pauses (%d full), max pause %v, old live %v, %d flushes",
		r.Config.CollectorName, r.TotalDuration, r.ReplayDuration, p, full,
		r.Log.MaxPause(), r.FinalOldLive, len(r.Flushes))
}

// SaturationTime estimates when the old generation would fill at the
// configured write rate (diagnostic; MaxTime when writes never fill it).
func (cfg Config) SaturationTime() simtime.Duration {
	c := cfg.withDefaults()
	longRate := c.OpsPerSec * c.WriteFraction * float64(c.HeapPerRecord)
	if longRate <= 0 || c.MemtableBudget < c.Heap {
		return simtime.Duration(math.MaxInt64)
	}
	old := float64(c.Heap - c.Young)
	return simtime.Seconds(old / longRate)
}
