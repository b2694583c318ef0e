// Package cluster extends the paper's single-node study to the setting
// its discussion keeps pointing at: "Apache Cassandra is a distributed
// database, supposed to run on multiple nodes" (§4.1). It simulates an
// N-node ring — every node a full JVM/storage-engine simulation with its
// own independent GC schedule — and asks whether replication and quorum
// consistency actually shield clients from stop-the-world pauses.
//
// The mechanics it captures:
//
//   - Replica fan-out: a request is coordinated by one node and served by
//     ReplicationFactor replicas; the consistency level decides how many
//     acknowledgements the coordinator waits for (the k-th order
//     statistic of the replica delays).
//   - Coordinator exposure: the coordinator's own pause stalls the
//     request regardless of consistency level.
//   - Pause desynchronization: nodes run identical workloads with
//     independent seeds, so their collections do not line up — which is
//     exactly why quorum reads mask most single-replica pauses, and why
//     CL=ALL inherits the UNION of everyone's pauses.
package cluster

import (
	"fmt"
	"sort"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/event"
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
	"jvmgc/internal/sweep"
	"jvmgc/internal/xrand"
)

// ConsistencyLevel is the number of replica acknowledgements a request
// waits for.
type ConsistencyLevel int

// The Cassandra consistency levels the study compares.
const (
	One ConsistencyLevel = iota
	Quorum
	All
)

// String returns the Cassandra name of the level.
func (c ConsistencyLevel) String() string {
	switch c {
	case One:
		return "ONE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	default:
		return "UNKNOWN"
	}
}

// acks returns how many of rf replicas must answer.
func (c ConsistencyLevel) acks(rf int) int {
	switch c {
	case One:
		return 1
	case Quorum:
		return rf/2 + 1
	default:
		return rf
	}
}

// Config parameterizes a cluster run.
type Config struct {
	// Nodes is the ring size (default 3).
	Nodes int
	// ReplicationFactor is the copies per key (default 3, capped at
	// Nodes).
	ReplicationFactor int
	// Node is the per-node server configuration; each node runs it with
	// an independent seed. The collector under test lives here.
	Node cassandra.Config
	// ClientOpsPerSec is the measuring client's arrival rate.
	ClientOpsPerSec float64
	// BaseLatencyMS is the no-pause service time per replica.
	BaseLatencyMS float64
	// Seed derives each node's seed and the client's arrival process.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 3
	}
	if c.ReplicationFactor > c.Nodes {
		c.ReplicationFactor = c.Nodes
	}
	if c.ClientOpsPerSec <= 0 {
		c.ClientOpsPerSec = 150
	}
	if c.BaseLatencyMS <= 0 {
		c.BaseLatencyMS = 1.2
	}
	return c
}

// Result is the outcome of a cluster run.
type Result struct {
	Config Config
	// Nodes holds each node's server result (pauses, logs, occupancy).
	Nodes []cassandra.Result
	// PerLevel maps each consistency level to its client latency report.
	PerLevel map[ConsistencyLevel]stats.BandReport
	// SuspicionsTotal counts failure-detector trips across the ring.
	SuspicionsTotal int
}

// Run simulates the ring and the measuring client at all three
// consistency levels (same arrival process, same per-node pause
// schedules, so the levels are directly comparable).
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Config: cfg, PerLevel: map[ConsistencyLevel]stats.BandReport{}}

	// Run the nodes. Identical configuration, independent seeds: the GC
	// schedules desynchronize as they would in production. Each node has
	// its own event wheel, and sweep.Run steps the wheels to completion;
	// nodes only interact through the post-hoc client analysis below, so
	// the results are byte-identical at any worker count. A shared
	// Node.Recorder takes one worker, since concurrent nodes would
	// interleave its telemetry stream nondeterministically.
	workers := 0
	if cfg.Node.Recorder != nil {
		workers = 1
	}
	wheels := make([]*event.Sim, cfg.Nodes)
	nodes := make([]*cassandra.Node, cfg.Nodes)
	for n := range nodes {
		nodeCfg := cfg.Node
		nodeCfg.Seed = cfg.Seed + uint64(n)*99991
		wheels[n] = event.New()
		node, err := cassandra.NewNode(nodeCfg, wheels[n])
		if err != nil {
			return res, fmt.Errorf("node %d: %w", n, err)
		}
		nodes[n] = node
		node.Start()
	}
	err := sweep.Run(sweep.Options{Workers: workers}, cfg.Nodes, func(n int) error {
		wheels[n].RunAll()
		if !nodes[n].Done() {
			return fmt.Errorf("node %d halted before completing its run", n)
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	horizon := simtime.Duration(0)
	for _, node := range nodes {
		nr := node.Result()
		res.Nodes = append(res.Nodes, nr)
		if nr.TotalDuration > horizon {
			horizon = nr.TotalDuration
		}
	}

	fd := cassandra.DefaultFailureDetector()
	for _, nr := range res.Nodes {
		res.SuspicionsTotal += len(fd.Analyze(nr.Log))
	}

	// Each node's pauses in time order, and all of them together (in any
	// order) as the reference set for the %GCs columns.
	nodePauses := make([][]stats.Interval, cfg.Nodes)
	var allPauses []stats.Interval
	for n, nr := range res.Nodes {
		pauses := nr.Log.Pauses()
		intervals := make([]stats.Interval, len(pauses))
		for i, e := range pauses {
			intervals[i] = stats.Interval{Start: e.Start.Seconds(), End: e.End().Seconds()}
		}
		nodePauses[n] = intervals
		allPauses = append(allPauses, intervals...)
	}

	// The measuring client: one arrival process, replayed at each
	// consistency level against the same replica delays. A request's
	// replicas are ReplicationFactor consecutive ring nodes from first.
	rng := xrand.New(cfg.Seed).SplitLabeled("cluster/" + cfg.Node.CollectorName)
	type op struct {
		t           float64
		coordinator int
		first       int
		jitter      float64
	}
	var ops []op
	t := 0.0
	// Clients connect after the slowest replay.
	for _, nr := range res.Nodes {
		if r := nr.ReplayDuration.Seconds(); r > t {
			t = r
		}
	}
	for {
		t += rng.Exp(1 / cfg.ClientOpsPerSec)
		if t >= horizon.Seconds() {
			break
		}
		coordinator := rng.Intn(cfg.Nodes)
		first := rng.Intn(cfg.Nodes)
		ops = append(ops, op{t: t, coordinator: coordinator, first: first, jitter: rng.Jitter(1, 0.15)})
	}

	samples := make([]stats.LatencySample, len(ops))
	delays := make([]float64, cfg.ReplicationFactor)
	for _, level := range []ConsistencyLevel{One, Quorum, All} {
		need := level.acks(cfg.ReplicationFactor)
		for i, o := range ops {
			// Coordinator pause stalls the request outright.
			lat := cfg.BaseLatencyMS*o.jitter + remaining(nodePauses[o.coordinator], o.t)*1e3
			for k := range delays {
				delays[k] = remaining(nodePauses[(o.first+k)%cfg.Nodes], o.t) * 1e3
			}
			sort.Float64s(delays)
			lat += delays[need-1]
			samples[i] = stats.LatencySample{Completed: o.t + lat/1e3, LatencyMS: lat}
		}
		res.PerLevel[level] = stats.AnalyzeBands(samples, allPauses, 0.01)
	}
	return res, nil
}

// remaining returns how much of a pause is left at instant t, given one
// node's pauses in time order (0 when t falls in none).
func remaining(pauses []stats.Interval, t float64) float64 {
	i := sort.Search(len(pauses), func(k int) bool { return pauses[k].End > t })
	if i < len(pauses) && t >= pauses[i].Start {
		return pauses[i].End - t
	}
	return 0
}

// Render prints the per-level comparison.
func (r Result) Render() string {
	out := fmt.Sprintf("Cluster study: %d nodes, RF=%d, %s — does replication mask GC pauses?\n",
		r.Config.Nodes, r.Config.ReplicationFactor, r.Config.Node.CollectorName)
	out += fmt.Sprintf("failure-detector trips across the ring: %d\n", r.SuspicionsTotal)
	header := []string{"Consistency", "avg (ms)", "max (ms)", ">8x avg (%reqs)"}
	var rows [][]string
	for _, level := range []ConsistencyLevel{One, Quorum, All} {
		rep := r.PerLevel[level]
		slow := 0.0
		for _, b := range rep.Above {
			if b.Label == ">8x AVG" {
				slow = b.Reqs
			}
		}
		rows = append(rows, []string{
			level.String(),
			fmt.Sprintf("%.3f", rep.AvgMS),
			fmt.Sprintf("%.1f", rep.MaxMS),
			fmt.Sprintf("%.3f", slow),
		})
	}
	return out + renderTable(header, rows)
}

// renderTable is a minimal aligned-table helper (kept local so the
// package has no dependency on internal/core).
func renderTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	out := ""
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				out += "  "
			}
			out += fmt.Sprintf("%-*s", widths[i], c)
		}
		out += "\n"
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return out
}
