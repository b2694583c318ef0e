package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func planPrefix(seed uint64, client, n int) []planEntry {
	p := newPlan(seed, client)
	out := make([]planEntry, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	for client := range svcNodes {
		if !reflect.DeepEqual(planPrefix(7, client, 5000), planPrefix(7, client, 5000)) {
			t.Fatalf("client %d: the same seed gave two different request plans", client)
		}
		if reflect.DeepEqual(planPrefix(7, client, 5000), planPrefix(8, client, 5000)) {
			t.Fatalf("client %d: seeds 7 and 8 gave the same request plan", client)
		}
	}
	if reflect.DeepEqual(planPrefix(7, 0, 5000), planPrefix(7, 1, 5000)) {
		t.Fatal("both clients follow the same plan")
	}
	if !reflect.DeepEqual(hotSet(7), hotSet(7)) || reflect.DeepEqual(hotSet(7), hotSet(8)) {
		t.Fatal("the hot set is not a function of the seed alone")
	}
	if !reflect.DeepEqual(jvmRunList(7), jvmRunList(7)) {
		t.Fatal("the same seed gave two different jvm-hours run lists")
	}
	if reflect.DeepEqual(jvmRunList(7), jvmRunList(8)) {
		t.Fatal("seeds 7 and 8 gave the same jvm-hours run list")
	}
}

func TestPlanMixIsExact(t *testing.T) {
	const n = 64 * missEvery * 5
	hot := map[uint64]bool{}
	for _, s := range hotSet(3) {
		hot[s.Seed] = true
	}
	fresh := map[uint64]bool{}
	for client := range svcNodes {
		entries := planPrefix(3, client, n)
		visits := make([]int, hotSpecs)
		durations := map[float64]int{}
		for i := 0; i < n; i += missEvery {
			misses := 0
			for _, e := range entries[i : i+missEvery] {
				if !e.Miss {
					visits[e.Hot]++
					continue
				}
				misses++
				durations[e.Spec.DurationSeconds]++
				if hot[e.Spec.Seed] || fresh[e.Spec.Seed] {
					t.Fatalf("client %d: miss seed %d is not fresh", client, e.Spec.Seed)
				}
				fresh[e.Spec.Seed] = true
			}
			if misses != 1 {
				t.Fatalf("client %d: block at %d holds %d misses, want 1", client, i, misses)
			}
		}
		for i, v := range visits {
			if v != n/missEvery*(missEvery-1)/hotSpecs {
				t.Fatalf("client %d: hot spec %d hit %d times, want every spec equally often", client, i, v)
			}
		}
		if len(durations) != hotSpecs {
			t.Fatalf("client %d: misses used %d durations, want %d", client, len(durations), hotSpecs)
		}
	}
}

func TestRunListCoversEveryConfiguration(t *testing.T) {
	type config struct {
		gc   string
		heap int64
	}
	total := map[config]time.Duration{}
	count := map[config]int{}
	for _, r := range jvmRunList(11) {
		if r.Length < time.Minute || r.Length > hoursPerConfig/2 {
			t.Fatalf("run length %v is not between minutes and hours", r.Length)
		}
		c := config{r.Collector, r.HeapBytes}
		total[c] += r.Length
		count[c]++
	}
	if len(total) != 6*len(jvmHeaps) {
		t.Fatalf("run list covers %d configurations, want %d", len(total), 6*len(jvmHeaps))
	}
	for c, d := range total {
		if d != hoursPerConfig || count[c] != runsPerConfig {
			t.Fatalf("%v: %d runs simulate %v, want %d runs of %v", c, count[c], d, runsPerConfig, hoursPerConfig)
		}
	}
}

// TestSelfTimes checks the ledger arithmetic on a request that crossed
// two nodes: the client span, the entry node's handler and the owner
// node's handler, which names the client span as its parent until
// linkHops re-parents it, plus a root whose children overlap and outlast
// it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "loadgen.client", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Req: 9, Name: "client.hit", Start: 100, End: 600},
		{ID: 3, Parent: 2, Req: 9, Name: spanEntry, Start: 150, End: 550},
		{ID: 4, Parent: 2, Req: 9, Name: spanOwner, Start: 200, End: 500},
		// Overlapping children of the root, one running past its end.
		{ID: 5, Parent: 1, Name: "a", Start: 650, End: 800},
		{ID: 6, Parent: 1, Name: "b", Start: 700, End: 1200},
	}
	linkHops(spans)
	if spans[3].Parent != 3 {
		t.Fatalf("owner span parent = %d, want the entry span 3", spans[3].Parent)
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 1000 - 500 - 350, // client span [100,600) and children [650,1000)
		2: 500 - 400,        // client span minus the entry handler
		3: 400 - 300,        // entry handler minus the owner handler
		4: 300,
		5: 150,
		6: 500,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	if got := unattributed(spans, self); got != 0.15 {
		t.Fatalf("unattributed = %v, want 0.15", got)
	}
	by := selfByName(spans, self)
	if by[spanEntry] != 100e-9 || by[spanOwner] != 300e-9 {
		t.Fatalf("self time by name = %v", by)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	req, id, ok := parseTraceparent(traceparent(123456, 789))
	if !ok || req != 123456 || id != 789 {
		t.Fatalf("parseTraceparent = %d, %d, %v", req, id, ok)
	}
	if _, _, ok := parseTraceparent("00-abc-def-01"); ok {
		t.Fatal("a malformed traceparent parsed")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || percentile(xs, 99) != 5 || percentile(xs, 20) != 1 {
		t.Fatalf("percentiles of %v: median %v p99 %v p20 %v", xs, median(xs), percentile(xs, 99), percentile(xs, 20))
	}
	if median([]float64{1, 2, 3, 10}) != 2.5 {
		t.Fatal("median of an even count is not the mean of the middle pair")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the program prints in
// step with the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(m.declared) != len(m.printed) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program prints %d", len(m.declared), len(m.printed))
		}
		for i, d := range m.declared {
			if d.Name != m.printed[i].name || d.Unit != m.printed[i].unit {
				t.Fatalf("metric %d: declared %s (%s), printed %s (%s)", i, d.Name, d.Unit, m.printed[i].name, m.printed[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("workload %q is declared but not implemented", w.Name)
		}
	}
}
