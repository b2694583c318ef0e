package ycsb

import (
	"math"
	"testing"

	"jvmgc/internal/cassandra"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// testServer runs a small server whose pauses the trace tests replay
// against.
func testServer(t *testing.T, collector string) cassandra.Result {
	t.Helper()
	cfg := cassandra.DefaultConfig(collector, 20*simtime.Minute)
	cfg.Heap = 16 * machine.GB
	cfg.Young = 3 * machine.GB
	cfg.WriteFraction = 0.5
	// Scale the offered load with the smaller heap so pauses stay rare
	// and short relative to wall time (as in the paper's client runs,
	// where ~99% of updates sit in the normal latency band and the
	// longest observed latency is sub-second).
	cfg.OpsPerSec = 400
	cfg.MemtableBudget = 2 * machine.GB
	cfg.RetentionFrac = 0.05
	cfg.PreloadBytes = 256 * machine.MB
	cfg.Seed = 9
	res, err := cassandra.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// countTypes returns the trace's read and update counts.
func countTypes(tr Trace) (reads, updates int) {
	for _, op := range tr.Ops {
		if op.Type == Read {
			reads++
		} else {
			updates++
		}
	}
	return reads, updates
}

func txnCfg() TransactionConfig {
	return TransactionConfig{OpsPerSec: 200, Seed: 4}
}

func TestOpTypeString(t *testing.T) {
	if Read.String() != "READ" || Update.String() != "UPDATE" {
		t.Error("op names wrong")
	}
}

func TestTraceShape(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	horizon := srv.TotalDuration.Seconds()
	want := 200 * horizon
	if n := float64(len(tr.Ops)); math.Abs(n-want)/want > 0.05 {
		t.Errorf("ops = %v, want ~%v", n, want)
	}
	reads, updates := countTypes(tr)
	frac := float64(reads) / float64(reads+updates)
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("read fraction = %v", frac)
	}
	for _, op := range tr.Ops[:100] {
		if op.LatencyMS <= 0 {
			t.Fatal("non-positive latency")
		}
		if op.Completed <= 0 || op.Completed > horizon+10 {
			t.Fatalf("completion %v outside horizon", op.Completed)
		}
	}
}

func TestShadowedOpsMatchPauses(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	if len(tr.Pauses) == 0 {
		t.Skip("server run produced no pauses")
	}
	shadowed := 0
	for _, op := range tr.Ops {
		if op.Shadowed {
			shadowed++
			// A shadowed op's latency must cover the pause remainder: at
			// least as large as a base service time.
			if op.LatencyMS < 0.3 {
				t.Fatalf("shadowed op with latency %v", op.LatencyMS)
			}
		}
	}
	if shadowed == 0 {
		t.Error("no operation overlapped any pause")
	}
	// The worst op should approach the longest pause.
	var maxLat float64
	for _, op := range tr.Ops {
		if op.LatencyMS > maxLat {
			maxLat = op.LatencyMS
		}
	}
	maxPause := srv.Log.MaxPause().Milliseconds()
	if maxLat < 0.5*maxPause {
		t.Errorf("max latency %vms << max pause %vms", maxLat, maxPause)
	}
}

func TestUpdateLatenciesFlatReadsStep(t *testing.T) {
	// The paper's Figure 5 observation: the update line is constant; the
	// read line rises in steps as the database grows.
	srv := testServer(t, "ParallelOld")
	tr := TransactionTrace(srv, txnCfg())
	horizon := srv.TotalDuration.Seconds()
	half := horizon / 2

	meanIn := func(typ OpType, lo, hi float64) float64 {
		sum, n := 0.0, 0
		for _, op := range tr.Ops {
			if op.Type != typ || op.Shadowed || op.Completed < lo || op.Completed > hi {
				continue
			}
			sum += op.LatencyMS
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	updEarly := meanIn(Update, 0, half)
	updLate := meanIn(Update, half, horizon)
	if math.Abs(updLate-updEarly)/updEarly > 0.05 {
		t.Errorf("update drifted: %v -> %v", updEarly, updLate)
	}
	readEarly := meanIn(Read, 0, half)
	readLate := meanIn(Read, half, horizon)
	if readLate < readEarly {
		t.Errorf("read latency did not grow: %v -> %v", readEarly, readLate)
	}
}

func TestReadStepFunction(t *testing.T) {
	base := 0.6
	if got := readStepMS(base, 1_000_000); got != base {
		t.Errorf("small DB stepped: %v", got)
	}
	if readStepMS(base, 5_000_000) <= base {
		t.Error("5M records did not step")
	}
	// Monotone in records.
	prev := 0.0
	for _, r := range []int64{1e6, 3e6, 8e6, 2e7, 1e8} {
		cur := readStepMS(base, r)
		if cur < prev {
			t.Fatalf("step decreased at %d records", r)
		}
		prev = cur
	}
	// Discrete: values within one octave are identical (steps, not slope).
	if readStepMS(base, 5_000_000) != readStepMS(base, 6_000_000) {
		t.Error("step function not flat within an octave")
	}
}

func TestBandsStructure(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	for _, typ := range []OpType{Read, Update} {
		rep := tr.Bands(typ, 0.001)
		if rep.N == 0 {
			t.Fatalf("%v: empty report", typ)
		}
		if rep.MinMS <= 0 || rep.AvgMS <= rep.MinMS || rep.MaxMS < rep.AvgMS {
			t.Errorf("%v: min/avg/max ordering: %v/%v/%v", typ, rep.MinMS, rep.AvgMS, rep.MaxMS)
		}
		if len(rep.Above) == 0 {
			t.Fatalf("%v: no exceedance bands", typ)
		}
		// Updates are tightly concentrated (paper: ~99%% in the normal
		// band).
		if typ == Update && rep.Normal.Reqs < 90 {
			t.Errorf("update normal band = %v%%", rep.Normal.Reqs)
		}
	}
}

func TestEveryGCVisibleInHighBands(t *testing.T) {
	// Paper: ">2x AVG (%GCs) = 100.0" — every pause coincides with at
	// least one slow request.
	srv := testServer(t, "CMS")
	cfg := txnCfg()
	cfg.OpsPerSec = 400 // dense arrivals so no pause goes unobserved
	tr := TransactionTrace(srv, cfg)
	rep := tr.Bands(Update, 0.001)
	if rep.Above[0].GCs < 95 {
		t.Errorf(">2x band GC coverage = %v%%, want ~100", rep.Above[0].GCs)
	}
	if rep.Normal.GCs > 5 {
		t.Errorf("normal band GC coverage = %v%%, want ~0", rep.Normal.GCs)
	}
}

func TestTopPoints(t *testing.T) {
	srv := testServer(t, "CMS")
	tr := TransactionTrace(srv, txnCfg())
	top := tr.TopPoints(1000)
	if len(top) != 1000 {
		t.Fatalf("top = %d", len(top))
	}
	// Every returned point is at least as slow as the overall median.
	med := tr.Bands(Update, 0.001).AvgMS / 2
	for _, op := range top {
		if op.LatencyMS < med {
			t.Fatalf("top point %v below half the update average", op.LatencyMS)
		}
	}
	if got := tr.TopPoints(0); got != nil {
		t.Error("TopPoints(0) != nil")
	}
	if got := tr.TopPoints(len(tr.Ops) + 10); len(got) != len(tr.Ops) {
		t.Error("TopPoints over-length mismatch")
	}
}

func TestDeterminism(t *testing.T) {
	srv := testServer(t, "G1")
	a := TransactionTrace(srv, txnCfg())
	b := TransactionTrace(srv, txnCfg())
	if len(a.Ops) != len(b.Ops) {
		t.Fatal("op counts differ")
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatal("ops differ")
		}
	}
}
