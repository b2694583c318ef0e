package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// resultDigest reduces a cluster run to a byte-exact fingerprint: every
// node's full GC log, flush/compaction history and counters, plus the
// per-level client latency reports.
func resultDigest(r Result) string {
	h := sha256.New()
	for _, nr := range r.Nodes {
		fmt.Fprintln(h, nr.Log.String())
		fmt.Fprintln(h, nr.ReplayDuration, nr.TotalDuration, nr.Compactions,
			nr.FinalOldLive, nr.OpsCompleted)
		for _, f := range nr.Flushes {
			fmt.Fprintln(h, f.Time, f.Released)
		}
		for _, p := range nr.Records {
			fmt.Fprintln(h, p.Time, p.Records)
		}
	}
	for _, lvl := range []ConsistencyLevel{One, Quorum, All} {
		rep := r.PerLevel[lvl]
		fmt.Fprintln(h, lvl, rep.N, rep.AvgMS, rep.MaxMS)
	}
	fmt.Fprintln(h, r.SuspicionsTotal)
	return hex.EncodeToString(h.Sum(nil))
}

// TestClusterDigestMatrix is the cluster's half of the determinism
// contract: the run digest must be byte-identical at GOMAXPROCS 1, 2
// and 4, which step the 3-node ring on 1 (the sequential path), 2 and
// 3 workers.
func TestClusterDigestMatrix(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	cfg := testConfig("G1")
	cfg.Node.Duration = 10 * simtime.Minute
	var want string
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := resultDigest(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("GOMAXPROCS=%d: digest %s diverged from baseline %s",
				procs, got[:12], want[:12])
		}
	}
}

// BenchmarkClusterStep measures stepping a 4-node ring (no client
// analysis beyond the run itself) on GOMAXPROCS workers; on a >= 4-core
// host this should scale near-linearly with the node count since the
// nodes share nothing while they step.
func BenchmarkClusterStep(b *testing.B) {
	node := cassandra.DefaultConfig("G1", 5*simtime.Minute)
	node.Heap = 16 * machine.GB
	node.Young = 3 * machine.GB
	node.WriteFraction = 0.5
	cfg := Config{
		Nodes:             4,
		ReplicationFactor: 3,
		Node:              node,
		ClientOpsPerSec:   120,
		Seed:              17,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// perLevelPins holds, per collector, the SHA-256 of the %#v of the ONE,
// QUORUM and ALL band reports of testConfig: every field of every band
// row, where TestClusterDigestMatrix hashes only N, AVG and MAX and
// compares GOMAXPROCS settings with each other.
var perLevelPins = map[string]string{
	"ParallelOld": "8dd1168d3ac16211911d7bbb2c316bbfff4b143eb75760ba1354f30bfba8742d",
	"CMS":         "d16dee888eaa261ff12610d2481309607b7111d732ad57e8244128080e82eed1",
	"G1":          "0ed19ff3c1b7743f24d38cb483da6ef4c91f4a62db77aec0e9be4d287164e44b",
}

func TestPerLevelReportsPinned(t *testing.T) {
	for gc, want := range perLevelPins {
		res, err := Run(testConfig(gc))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, lvl := range []ConsistencyLevel{One, Quorum, All} {
			fmt.Fprintf(h, "%v %#v\n", lvl, res.PerLevel[lvl])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: per-level report digest = %s, want %s", gc, got, want)
		}
	}
}
