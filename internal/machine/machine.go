// Package machine models the multicore NUMA server the paper's experiments
// ran on, and prices parallel garbage-collection work on it.
//
// The paper's testbed is a 48-core, 4-socket machine with 2 NUMA nodes per
// socket and 6 cores per node, 64 GB of RAM, per-core L1/L2 caches and a
// per-node L3. The findings the study leans on — GC phases that stop
// scaling beyond a node, remote-scan and remote-copy penalties, and
// minutes-long full collections of a nearly full 64 GB heap — are all
// functions of this topology, so the model carries it explicitly.
//
// Pricing follows the mechanism Gidra et al. identify (the paper's refs
// [12, 13]): parallel GC phases suffer a per-thread synchronization tax
// and, once worker threads span NUMA nodes, a growing fraction of remote
// accesses whose bandwidth is a fraction of local bandwidth. The resulting
// speedup curve rises steeply inside one node and flattens hard across
// nodes, matching the observation that HotSpot's collectors "do not scale
// with the number of cores".
package machine

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Bytes is a memory quantity in bytes.
type Bytes int64

// Common sizes.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
)

// String formats the quantity with a binary unit.
func (b Bytes) String() string {
	var buf [24]byte
	return string(b.Append(buf[:0]))
}

// Append appends the String form of b to dst and returns the extended
// buffer. The digits are those of fmt's %.4g, which is
// strconv.AppendFloat with format 'g' and precision 4.
func (b Bytes) Append(dst []byte) []byte {
	unit, name := Bytes(0), ""
	switch {
	case b >= GB || b <= -GB:
		unit, name = GB, "GB"
	case b >= MB || b <= -MB:
		unit, name = MB, "MB"
	case b >= KB || b <= -KB:
		unit, name = KB, "KB"
	default:
		return append(strconv.AppendInt(dst, int64(b), 10), 'B')
	}
	dst = strconv.AppendFloat(dst, float64(b)/float64(unit), 'g', 4, 64)
	return append(dst, name...)
}

// ParseSize parses a size the way the JVM's -Xmx takes one: "512m",
// "16g", "100k" or a plain byte count, in either case; the number may be
// fractional ("1.5g"). It rejects NaN, infinities, negative sizes and
// sizes beyond int64. Zero is a valid size.
func ParseSize(s string) (Bytes, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	mult := Bytes(1)
	if t != "" {
		switch t[len(t)-1] {
		case 'k':
			mult = KB
		case 'm':
			mult = MB
		case 'g':
			mult = GB
		}
		if mult > 1 {
			t = t[:len(t)-1]
		}
	}
	v, err := strconv.ParseFloat(t, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	n := v * float64(mult)
	// Negated so that NaN, which fails every comparison, is rejected too.
	if !(n >= 0 && n < 1<<63) {
		return 0, fmt.Errorf("size %q out of range", s)
	}
	return Bytes(n), nil
}

// Topology describes the processor and memory layout of a machine.
type Topology struct {
	Sockets        int   // processor packages
	NodesPerSocket int   // NUMA nodes per socket
	CoresPerNode   int   // cores per NUMA node
	RAM            Bytes // total memory
	L1PerCore      Bytes // per-core level-1 cache (data)
	L2PerCore      Bytes // per-core level-2 cache
	L3PerNode      Bytes // per-NUMA-node level-3 cache
}

// Cores returns the total number of hardware threads.
func (t Topology) Cores() int { return t.Sockets * t.NodesPerSocket * t.CoresPerNode }

// Nodes returns the total number of NUMA nodes.
func (t Topology) Nodes() int { return t.Sockets * t.NodesPerSocket }

// Validate reports whether the topology is well-formed.
func (t Topology) Validate() error {
	switch {
	case t.Sockets <= 0:
		return errors.New("machine: topology needs at least one socket")
	case t.NodesPerSocket <= 0:
		return errors.New("machine: topology needs at least one NUMA node per socket")
	case t.CoresPerNode <= 0:
		return errors.New("machine: topology needs at least one core per node")
	case t.RAM <= 0:
		return errors.New("machine: topology needs positive RAM")
	default:
		return nil
	}
}

// PaperTestbed returns the topology of the paper's 48-core server:
// 4 sockets, 2 NUMA nodes per socket, 6 cores per node, 64 GB RAM,
// 1.5 MB L1 and 6 MB L2 per core, 12 MB L3 per node (§3.1).
func PaperTestbed() Topology {
	return Topology{
		Sockets:        4,
		NodesPerSocket: 2,
		CoresPerNode:   6,
		RAM:            64 * GB,
		L1PerCore:      1536 * KB,
		L2PerCore:      6 * MB,
		L3PerNode:      12 * MB,
	}
}

// TwoSocketServer returns a contemporary two-socket, two-NUMA-node
// server: 32 cores, 128 GB RAM. Useful for sensitivity studies against
// the paper's eight-node box.
func TwoSocketServer() Topology {
	return Topology{
		Sockets:        2,
		NodesPerSocket: 1,
		CoresPerNode:   16,
		RAM:            128 * GB,
		L1PerCore:      48 * KB,
		L2PerCore:      1280 * KB,
		L3PerNode:      30 * MB,
	}
}

// Laptop returns a single-node developer machine: 8 cores, 16 GB RAM.
func Laptop() Topology {
	return Topology{
		Sockets:        1,
		NodesPerSocket: 1,
		CoresPerNode:   8,
		RAM:            16 * GB,
		L1PerCore:      64 * KB,
		L2PerCore:      512 * KB,
		L3PerNode:      16 * MB,
	}
}

// ClientTestbed returns the topology of the paper's YCSB client machine:
// 16 cores, 8 GB RAM (§4).
func ClientTestbed() Topology {
	return Topology{
		Sockets:        2,
		NodesPerSocket: 1,
		CoresPerNode:   8,
		RAM:            8 * GB,
		L1PerCore:      64 * KB,
		L2PerCore:      512 * KB,
		L3PerNode:      8 * MB,
	}
}

// CostParams are the tunable constants of the pricing model. The defaults
// are calibrated so that absolute pause magnitudes land in the ranges the
// paper reports (hundreds of milliseconds on DaCapo-size live sets,
// seconds to minutes on the 64 GB Cassandra heap).
type CostParams struct {
	// LocalBandwidth is the per-core streaming bandwidth, in bytes per
	// second, for GC-style pointer-chasing work against local memory.
	// This is far below peak DRAM bandwidth: GC copy/mark loops are
	// latency-bound graph traversals, not memcpy.
	LocalBandwidth float64
	// RemoteFactor is the throughput of remote (cross-node) accesses as a
	// fraction of local accesses (0 < RemoteFactor <= 1).
	RemoteFactor float64
	// SyncTax is the per-extra-thread fractional synchronization overhead
	// in parallel phases (work stealing, termination protocols, shared
	// queue contention).
	SyncTax float64
	// InterleaveRemoteFrac is the fraction of accesses that hit remote
	// memory when the heap is interleaved across n nodes and the worker
	// set spans them: (n-1)/n of pages are remote to any given worker.
	// HotSpot is not NUMA-aware when copying (Gidra et al.), so workers
	// see this full fraction. The constant scales it (1 = full exposure).
	InterleaveRemoteFrac float64
	// SpinUp is the fixed per-thread cost, in seconds, of dispatching a
	// parallel phase (task setup, barrier entry/exit). It is why serial
	// collection wins on tiny live sets.
	SpinUp float64
}

// DefaultCostParams returns the calibrated pricing constants.
func DefaultCostParams() CostParams {
	return CostParams{
		LocalBandwidth:       600e6, // 600 MB/s per core of traversal work
		RemoteFactor:         0.45,
		SyncTax:              0.035,
		InterleaveRemoteFrac: 1.0,
		SpinUp:               40e-6, // 40 µs per worker per phase
	}
}

// Machine combines a topology with pricing parameters.
type Machine struct {
	Topo Topology
	Cost CostParams
}

// New returns a Machine for the given topology with default cost
// parameters. It panics if the topology is invalid, since a bad topology
// is a programming error in experiment setup.
func New(t Topology) *Machine {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	return &Machine{Topo: t, Cost: DefaultCostParams()}
}

// nodesSpannedF returns how many NUMA nodes a gang of n threads occupies,
// assuming compact placement (fill a node before spilling to the next).
// The result is fractional so the remote-access penalty ramps smoothly as
// a gang spills into the next node instead of jumping at the boundary.
func (m *Machine) nodesSpannedF(n int) float64 {
	nodes := float64(n) / float64(m.Topo.CoresPerNode)
	if max := float64(m.Topo.Nodes()); nodes > max {
		nodes = max
	}
	if nodes < 1 {
		nodes = 1
	}
	return nodes
}

// Speedup returns the effective speedup of a parallel GC phase using n
// worker threads, relative to one thread on local memory. It is strictly
// positive, equals ~1 at n=1, and saturates as threads span NUMA nodes.
func (m *Machine) Speedup(n int) float64 {
	if n <= 1 {
		return 1
	}
	if c := m.Topo.Cores(); n > c {
		n = c
	}
	nodes := m.nodesSpannedF(n)
	remoteFrac := 0.0
	if nodes > 1 {
		remoteFrac = m.Cost.InterleaveRemoteFrac * (nodes - 1) / nodes
	}
	// Per-thread throughput: a remoteFrac portion of accesses run at
	// RemoteFactor of local speed.
	perThread := 1 / (1 - remoteFrac + remoteFrac/m.Cost.RemoteFactor)
	// Synchronization tax grows with gang size.
	sync := 1 + m.Cost.SyncTax*float64(n-1)
	return float64(n) * perThread / sync
}

// Efficiency returns Speedup(n)/n, the per-thread efficiency of a
// parallel phase.
func (m *Machine) Efficiency(n int) float64 { return m.Speedup(n) / float64(n) }

// NUMARemoteShare returns the fraction of memory accesses a compactly
// placed gang of n threads services from remote NUMA nodes — the share of
// a parallel pause paying the remote penalty (telemetry attributes this
// on GC spans).
func (m *Machine) NUMARemoteShare(n int) float64 {
	if n > m.Topo.Cores() {
		n = m.Topo.Cores()
	}
	nodes := m.nodesSpannedF(n)
	if nodes <= 1 {
		return 0
	}
	return m.Cost.InterleaveRemoteFrac * (nodes - 1) / nodes
}

// ParallelSeconds prices `work` bytes of GC traversal performed by n
// threads, including the phase spin-up cost.
func (m *Machine) ParallelSeconds(work float64, n int) float64 {
	if work < 0 {
		work = 0
	}
	if n < 1 {
		n = 1
	}
	return work/(m.Cost.LocalBandwidth*m.Speedup(n)) + m.Cost.SpinUp*float64(n)
}

// SerialSeconds prices `work` bytes of GC traversal on a single thread.
// Large heaps spill the working set across NUMA nodes, so a lone thread
// also pays remote penalties in proportion to the interleaved fraction.
func (m *Machine) SerialSeconds(work float64, heapSpan Bytes) float64 {
	if work < 0 {
		work = 0
	}
	nodes := 1
	if per := m.Topo.RAM / Bytes(m.Topo.Nodes()); per > 0 {
		nodes = int((heapSpan + per - 1) / per)
	}
	if nodes < 1 {
		nodes = 1
	}
	if max := m.Topo.Nodes(); nodes > max {
		nodes = max
	}
	remoteFrac := m.Cost.InterleaveRemoteFrac * float64(nodes-1) / float64(nodes)
	perThread := 1 / (1 - remoteFrac + remoteFrac/m.Cost.RemoteFactor)
	return work / (m.Cost.LocalBandwidth * perThread)
}

// DefaultGCThreads returns HotSpot's ergonomic ParallelGCThreads value for
// the machine: all cores up to 8, then 8 + 5/8 of the cores beyond 8.
func (m *Machine) DefaultGCThreads() int {
	c := m.Topo.Cores()
	if c <= 8 {
		return c
	}
	return 8 + (c-8)*5/8
}

// DefaultConcGCThreads returns HotSpot's ergonomic ConcGCThreads value:
// (ParallelGCThreads + 3) / 4.
func (m *Machine) DefaultConcGCThreads() int {
	return (m.DefaultGCThreads() + 3) / 4
}
