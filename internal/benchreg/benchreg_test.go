package benchreg

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: jvmgc
cpu: Shared CI runner
BenchmarkFigure3Ranking-8   	      10	   4437160 ns/op	         0 G1-wins-pct	        69.84 ParallelOld-wins-pct	 5122300 B/op	   17760 allocs/op
BenchmarkScheduleFire-8     	64305271	        18.23 ns/op	       0 B/op	       0 allocs/op
BenchmarkZipfNext           	12345678	        95.00 ns/op
PASS
ok  	jvmgc	12.3s
`

func TestParse(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	fig, ok := rep.Lookup("BenchmarkFigure3Ranking")
	if !ok {
		t.Fatal("Figure3Ranking missing (GOMAXPROCS suffix not stripped?)")
	}
	if fig.NsPerOp != 4437160 || fig.AllocsPerOp != 17760 || fig.BytesPerOp != 5122300 {
		t.Errorf("Figure3Ranking = %+v", fig)
	}
	if !fig.HasMem {
		t.Error("Figure3Ranking HasMem = false")
	}
	if fig.Metrics["ParallelOld-wins-pct"] != 69.84 {
		t.Errorf("custom metric = %v", fig.Metrics)
	}
	fire, _ := rep.Lookup("BenchmarkScheduleFire")
	if fire.NsPerOp != 18.23 || fire.AllocsPerOp != 0 || !fire.HasMem {
		t.Errorf("ScheduleFire = %+v", fire)
	}
	zipf, _ := rep.Lookup("BenchmarkZipfNext")
	if zipf.HasMem {
		t.Error("ZipfNext HasMem = true without -benchmem columns")
	}
}

func TestParseMergesRepeatedRunsByMinimum(t *testing.T) {
	in := `BenchmarkX-4   	     100	   2000 ns/op	 500 B/op	 10 allocs/op
BenchmarkX-4   	     120	   1500 ns/op	 480 B/op	  9 allocs/op
BenchmarkX-4   	     110	   1800 ns/op	 520 B/op	 11 allocs/op
`
	rep, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	x, ok := rep.Lookup("BenchmarkX")
	if !ok || len(rep.Benchmarks) != 1 {
		t.Fatalf("merge failed: %+v", rep)
	}
	if x.NsPerOp != 1500 || x.BytesPerOp != 480 || x.AllocsPerOp != 9 || x.N != 120 {
		t.Errorf("merged = %+v, want min of each metric", x)
	}
}

// TestParseRejectsNonFinite: a value the JSON report cannot hold is a
// parse error, as a non-numeric one is. Accepted, a NaN ns/op would pass
// every comparison and fail WriteJSON.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8 10 fast ns/op",
		"BenchmarkX-8 10 NaN ns/op",
		"BenchmarkX-8 10 5 ns/op 8 B/op nan allocs/op",
		"BenchmarkX-8 10 5 ns/op Inf wins-pct",
		"BenchmarkX-8 10 5 ns/op -Inf wins-pct",
		"BenchmarkX-8 10 1e999 ns/op",
	} {
		if rep, err := Parse(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", line, rep)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != len(rep.Benchmarks) {
		t.Fatalf("round-trip lost benchmarks: %d != %d", len(back.Benchmarks), len(rep.Benchmarks))
	}
	for i := range rep.Benchmarks {
		a, b := rep.Benchmarks[i], back.Benchmarks[i]
		if a.Name != b.Name || a.NsPerOp != b.NsPerOp || a.AllocsPerOp != b.AllocsPerOp {
			t.Errorf("round-trip mismatch: %+v != %+v", a, b)
		}
	}
}

// FuzzParse holds Parse to the report it returns: it never panics, and
// any report it returns survives WriteJSON then ReadJSON unchanged, so a
// value the JSON report cannot hold (NaN, an infinity) is rejected as a
// non-numeric one is. The seed corpus under testdata/fuzz/FuzzParse holds
// gate output, repeated runs, a custom metric, an odd value/unit tail,
// and NaN and infinite values.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		rep, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of a parsed report: %v", err)
		}
		back, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("ReadJSON of a written report: %v", err)
		}
		if !reflect.DeepEqual(back, rep) {
			t.Fatalf("report changed across WriteJSON/ReadJSON:\n got %+v\nwant %+v", back, rep)
		}
	})
}

func bench(name string, ns, allocs float64) Result {
	return Result{Name: name, N: 1, NsPerOp: ns, AllocsPerOp: allocs, HasMem: true}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := Report{Benchmarks: []Result{bench("BenchmarkA", 1000, 50)}}
	cur := Report{Benchmarks: []Result{bench("BenchmarkA", 1200, 50)}}
	deltas := Compare(base, cur, Thresholds{})
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Errorf("20%% slower flagged as regression under 25%% threshold: %v", regs)
	}
}

func TestCompareNsRegressionFails(t *testing.T) {
	base := Report{Benchmarks: []Result{bench("BenchmarkA", 1000, 50)}}
	cur := Report{Benchmarks: []Result{bench("BenchmarkA", 1300, 50)}}
	regs := Regressions(Compare(base, cur, Thresholds{}))
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Errorf("30%% slower not flagged: %v", regs)
	}
}

func TestCompareAnyAllocIncreaseFails(t *testing.T) {
	base := Report{Benchmarks: []Result{bench("BenchmarkA", 1000, 50)}}
	cur := Report{Benchmarks: []Result{bench("BenchmarkA", 900, 51)}}
	regs := Regressions(Compare(base, cur, Thresholds{}))
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Errorf("one extra alloc not flagged: %v", regs)
	}
}

func TestCompareZeroAllocBaselineGuarded(t *testing.T) {
	base := Report{Benchmarks: []Result{bench("BenchmarkFire", 20, 0)}}
	cur := Report{Benchmarks: []Result{bench("BenchmarkFire", 20, 1)}}
	regs := Regressions(Compare(base, cur, Thresholds{}))
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Errorf("loss of zero-alloc property not flagged: %v", regs)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := Report{Benchmarks: []Result{bench("BenchmarkGone", 1000, 50)}}
	cur := Report{}
	regs := Regressions(Compare(base, cur, Thresholds{}))
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Errorf("dropped benchmark not flagged: %v", regs)
	}
}

func TestCompareIgnoresNewBenchmarks(t *testing.T) {
	base := Report{Benchmarks: []Result{bench("BenchmarkA", 1000, 50)}}
	cur := Report{Benchmarks: []Result{
		bench("BenchmarkA", 1000, 50),
		bench("BenchmarkNew", 1, 1e9),
	}}
	if regs := Regressions(Compare(base, cur, Thresholds{})); len(regs) != 0 {
		t.Errorf("benchmark absent from baseline gated: %v", regs)
	}
}

func TestCompareAllocSlack(t *testing.T) {
	base := Report{Benchmarks: []Result{bench("BenchmarkA", 1000, 100)}}
	cur := Report{Benchmarks: []Result{bench("BenchmarkA", 1000, 104)}}
	if regs := Regressions(Compare(base, cur, Thresholds{AllocSlack: 0.05})); len(regs) != 0 {
		t.Errorf("4%% alloc growth flagged despite 5%% slack: %v", regs)
	}
	if regs := Regressions(Compare(base, cur, Thresholds{AllocSlack: 0.03})); len(regs) != 1 {
		t.Errorf("4%% alloc growth not flagged under 3%% slack: %v", regs)
	}
}
