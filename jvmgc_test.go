package jvmgc_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"jvmgc"
)

func TestCollectorsAndBenchmarks(t *testing.T) {
	cols := jvmgc.Collectors()
	if len(cols) != 6 || cols[0] != "Serial" || cols[5] != "G1" {
		t.Errorf("Collectors = %v", cols)
	}
	if len(jvmgc.Benchmarks()) != 14 {
		t.Errorf("Benchmarks = %v", jvmgc.Benchmarks())
	}
	if len(jvmgc.StableBenchmarks()) != 7 {
		t.Errorf("StableBenchmarks = %v", jvmgc.StableBenchmarks())
	}
}

func TestSimulateBasic(t *testing.T) {
	res, err := jvmgc.Simulate(jvmgc.SimulationConfig{
		Collector:        "ParallelOld",
		HeapBytes:        4 << 30,
		AllocBytesPerSec: 800e6,
		Seed:             1,
	}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pauses) == 0 {
		t.Fatal("no pauses on a small heap at 800MB/s")
	}
	if res.TotalPause <= 0 || res.MaxPause <= 0 {
		t.Error("pause aggregates empty")
	}
	if !strings.Contains(res.LogText, "GC") {
		t.Error("log text empty")
	}
	for _, p := range res.Pauses {
		if p.Duration <= 0 || p.Kind == "" || p.Cause == "" {
			t.Fatalf("malformed pause %+v", p)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := jvmgc.Simulate(jvmgc.SimulationConfig{}, 0); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := jvmgc.Simulate(jvmgc.SimulationConfig{Collector: "ZGC"}, time.Second); err == nil {
		t.Error("unknown collector accepted")
	}
	if _, err := jvmgc.Simulate(jvmgc.SimulationConfig{
		ShortLivedFraction: 0.8, ShortLifetime: time.Second,
		MediumLivedFraction: 0.5, MediumLifetime: time.Second,
	}, time.Second); err == nil {
		t.Error("invalid demographics accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	run := func() string {
		res, err := jvmgc.Simulate(jvmgc.SimulationConfig{
			Collector: "CMS", HeapBytes: 4 << 30, AllocBytesPerSec: 900e6, Seed: 5,
		}, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res.LogText
	}
	if run() != run() {
		t.Error("Simulate not deterministic")
	}
}

func TestRunBenchmarkFacade(t *testing.T) {
	res, err := jvmgc.RunBenchmark(jvmgc.BenchmarkOptions{Benchmark: "xalan", Collector: "G1", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterationSeconds) != 10 {
		t.Errorf("iterations = %d", len(res.IterationSeconds))
	}
	if res.FullGCs < 9 {
		t.Errorf("full GCs = %d with default system GC", res.FullGCs)
	}
	// The log renders on request, one line per event, and stays out of
	// the encoded result: a decoded one renders none.
	if lines := strings.Count(res.LogText(), "\n"); lines < len(res.Pauses) {
		t.Errorf("LogText has %d lines for %d pauses", lines, len(res.Pauses))
	}
	var decoded jvmgc.BenchmarkResult
	if b, err := json.Marshal(res); err != nil || json.Unmarshal(b, &decoded) != nil || decoded.LogText() != "" {
		t.Errorf("a decoded result renders a log (%v)", err)
	}
	if _, err := jvmgc.RunBenchmark(jvmgc.BenchmarkOptions{Benchmark: "nope"}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := jvmgc.RunBenchmark(jvmgc.BenchmarkOptions{Benchmark: "eclipse"}); err == nil {
		t.Error("crashing benchmark did not error")
	}
}

func TestRunClientServerFacade(t *testing.T) {
	res, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{
		Collector: "CMS",
		Duration:  30 * time.Minute,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Read.N == 0 || res.Update.N == 0 {
		t.Fatal("no client operations")
	}
	if res.Update.NormalReqsPct < 90 {
		t.Errorf("update normal band = %.1f%%", res.Update.NormalReqsPct)
	}
	if len(res.Read.Exceedance) == 0 {
		t.Error("no exceedance bands")
	}
	if len(res.Ops) == 0 || len(res.ServerPauses) == 0 {
		t.Error("missing raw series")
	}
	if _, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{Collector: "Epsilon"}); err == nil {
		t.Error("unknown collector accepted")
	}
}

func TestStressModeReplays(t *testing.T) {
	res, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{
		Collector: "G1",
		Stress:    true,
		Duration:  20 * time.Minute,
		Seed:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplaySeconds <= 0 {
		t.Error("stress mode skipped the commitlog replay")
	}
	if res.TotalSeconds <= res.ReplaySeconds {
		t.Error("total excludes client phase")
	}
}

func TestReproducePaperQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	rep, err := jvmgc.ReproducePaper(42, true)
	if err != nil {
		t.Fatal(err)
	}
	out := rep.Render()
	for _, want := range []string{"Table 2", "Table 8", "Figure 3a"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if got := rep.Verdicts(); len(got.Rows) != 6 {
		t.Errorf("verdicts = %d", len(got.Rows))
	}
}

func TestRunClusterFacade(t *testing.T) {
	res, err := jvmgc.RunCluster(jvmgc.ClusterOptions{
		Collector: "CMS",
		Stress:    true,
		Duration:  30 * time.Minute,
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.One.N == 0 || res.Quorum.N == 0 || res.All.N == 0 {
		t.Fatal("missing level reports")
	}
	// Masking order: ONE <= QUORUM <= ALL on the worst case.
	if !(res.One.MaxMS <= res.Quorum.MaxMS+1e-9 && res.Quorum.MaxMS <= res.All.MaxMS+1e-9) {
		t.Errorf("masking order violated: %.1f / %.1f / %.1f",
			res.One.MaxMS, res.Quorum.MaxMS, res.All.MaxMS)
	}
	if _, err := jvmgc.RunCluster(jvmgc.ClusterOptions{Collector: "Azul"}); err == nil {
		t.Error("unknown collector accepted")
	}
}

func TestSimulateTraceFacade(t *testing.T) {
	trace := strings.NewReader("seconds,alloc_bytes_per_sec\n0,100000000\n30,900000000\n60,50000000\n")
	res, err := jvmgc.SimulateTrace(jvmgc.SimulationConfig{
		Collector: "G1", HeapBytes: 4 << 30, Seed: 2,
	}, trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pauses) == 0 {
		t.Error("trace replay produced no pauses")
	}
	if _, err := jvmgc.SimulateTrace(jvmgc.SimulationConfig{}, strings.NewReader("")); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestAdviseFacade(t *testing.T) {
	advice, err := jvmgc.Advise(jvmgc.AdviseOptions{
		HeapBytes:        8 << 30,
		Threads:          32,
		AllocBytesPerSec: 400e6,
		MaxPause:         500 * time.Millisecond,
		MaxPauseFraction: 0.06,
		EvaluationWindow: 2 * time.Minute,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(advice) != 24 {
		t.Fatalf("advice entries = %d", len(advice))
	}
	if !advice[0].MeetsSLO {
		t.Error("no compliant configuration at this loose SLO")
	}
	if _, err := jvmgc.Advise(jvmgc.AdviseOptions{}); err == nil {
		t.Error("missing heap accepted")
	}
}
