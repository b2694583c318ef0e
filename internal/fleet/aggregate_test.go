package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jvmgc/internal/fleet"
	"jvmgc/internal/hdrhist"
	"jvmgc/internal/labd"
	"jvmgc/internal/telemetry"
)

// metricNode is one node's metric set for the merge property: a counter
// through a handle, one by name, a gauge and a histogram, registered as
// a daemon registers them.
type metricNode struct {
	m     *telemetry.Metrics
	hits  *telemetry.CounterHandle
	depth float64
	lat   *telemetry.Histogram
}

func newMetricNode() *metricNode {
	n := &metricNode{m: telemetry.NewMetrics()}
	n.hits = n.m.CounterHandle("labd.cache.hits")
	n.m.Gauge("labd.queue.depth", "Jobs waiting for a worker.", func() float64 { return n.depth })
	n.lat = n.m.Histogram("labd_job_latency_hist_seconds", "Job latency.")
	return n
}

// TestMergeStatesMatchesOneNode: the rollup folds the nodes' metric sets
// by name as one node would have counted. Seeded observations split
// across 2–5 node sets merge, in any arrival order, to byte-identical
// JSON with the counters, gauge sums, histogram bucket counts and totals
// of one set fed every observation.
func TestMergeStatesMatchesOneNode(t *testing.T) {
	const hist = "labd_job_latency_hist_seconds"
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		parts := make([]*metricNode, 2+rng.Intn(4))
		for i := range parts {
			parts[i] = newMetricNode()
		}
		whole := newMetricNode()
		for i := 0; i < 400; i++ {
			p := parts[rng.Intn(len(parts))]
			switch rng.Intn(4) {
			case 0:
				p.hits.Add(1)
				whole.hits.Add(1)
			case 1:
				p.m.Add("labd.jobs.failed", 1)
				whole.m.Add("labd.jobs.failed", 1)
			case 2:
				d := float64(rng.Intn(5))
				p.depth += d
				whole.depth += d
			default:
				v := rng.ExpFloat64() * 0.01
				p.lat.Observe(v)
				whole.lat.Observe(v)
			}
		}
		states := make([]labd.NodeState, len(parts))
		for i, p := range parts {
			states[i] = labd.NodeState{Node: fmt.Sprintf("n%d", i), MetricsState: p.m.State()}
		}
		merged := fleet.MergeStates(states)
		first, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			rng.Shuffle(len(states), func(i, j int) { states[i], states[j] = states[j], states[i] })
			again, err := json.Marshal(fleet.MergeStates(states))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, first) {
				t.Fatalf("seed %d: arrival order changed the rollup:\n%s\nwant\n%s", seed, again, first)
			}
		}

		one := whole.m.State()
		if !reflect.DeepEqual(merged.Counters, one.Counters) {
			t.Fatalf("seed %d: counters %v, one node counted %v", seed, merged.Counters, one.Counters)
		}
		if !reflect.DeepEqual(merged.Gauges, one.Gauges) {
			t.Fatalf("seed %d: gauges %v, one node reads %v", seed, merged.Gauges, one.Gauges)
		}
		got, err := hdrhist.Decode(merged.Hists[hist])
		if err != nil {
			t.Fatal(err)
		}
		want, err := hdrhist.Decode(one.Hists[hist])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(buckets(got), buckets(want)) {
			t.Fatalf("seed %d: merged buckets %v, one node's %v", seed, buckets(got), buckets(want))
		}
		if got.Count() != want.Count() || got.Min() != want.Min() || got.Max() != want.Max() ||
			math.Abs(got.Sum()-want.Sum()) > 1e-9*want.Sum() {
			t.Fatalf("seed %d: merged count %d min %g max %g sum %g, one node's %d %g %g %g", seed,
				got.Count(), got.Min(), got.Max(), got.Sum(), want.Count(), want.Min(), want.Max(), want.Sum())
		}
	}
}

func buckets(h *hdrhist.Hist) []hdrhist.Bucket {
	var out []hdrhist.Bucket
	h.ForEachBucket(func(b hdrhist.Bucket) { out = append(out, b) })
	return out
}
