package ycsb

import (
	"strings"
	"testing"
)

func TestCoreWorkloadConfigs(t *testing.T) {
	base := TransactionConfig{OpsPerSec: 100, Seed: 1}
	cases := []struct {
		w        CoreWorkload
		readFrac float64
	}{
		{WorkloadA, 0.5},
		{WorkloadB, 0.95},
		{WorkloadC, 1},
		{WorkloadD, 0.95},
		{WorkloadE, 0.95},
		{WorkloadF, -1},
	}
	for _, c := range cases {
		cfg, err := c.w.Config(base)
		if err != nil {
			t.Fatalf("%c: %v", c.w, err)
		}
		if cfg.ReadFraction != c.readFrac {
			t.Errorf("%c: read fraction %v, want %v", c.w, cfg.ReadFraction, c.readFrac)
		}
		if d := c.w.Describe(); d == "unknown workload" {
			t.Errorf("%c: no description", c.w)
		}
	}
	if _, err := CoreWorkload('Z').Config(base); err == nil {
		t.Error("unknown workload accepted")
	}
	if !strings.Contains(CoreWorkload('Z').Describe(), "unknown") {
		t.Error("unknown description wrong")
	}
}

func TestCoreWorkloadMixesInTrace(t *testing.T) {
	srv := testServer(t, "ParallelOld")
	count := func(w CoreWorkload) (reads, updates int) {
		cfg, err := w.Config(TransactionConfig{OpsPerSec: 300, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		tr := TransactionTrace(srv, cfg)
		return countTypes(tr)
	}
	// C: read only.
	if r, u := count(WorkloadC); u != 0 || r == 0 {
		t.Errorf("workload C: %d reads, %d updates", r, u)
	}
	// F: update only.
	if r, u := count(WorkloadF); r != 0 || u == 0 {
		t.Errorf("workload F: %d reads, %d updates", r, u)
	}
	// B: ~95% reads.
	r, u := count(WorkloadB)
	frac := float64(r) / float64(r+u)
	if frac < 0.93 || frac > 0.97 {
		t.Errorf("workload B read fraction %v", frac)
	}
}

func TestScansCostMore(t *testing.T) {
	srv := testServer(t, "ParallelOld")
	mean := func(w CoreWorkload) float64 {
		cfg, _ := w.Config(TransactionConfig{OpsPerSec: 300, Seed: 5})
		tr := TransactionTrace(srv, cfg)
		rep := tr.Bands(Read, 0.01)
		return rep.AvgMS
	}
	if scan, point := mean(WorkloadE), mean(WorkloadB); scan < 4*point {
		t.Errorf("scan avg %.2fms not >> point read %.2fms", scan, point)
	}
}

func TestReadModifyWriteCostsBoth(t *testing.T) {
	srv := testServer(t, "ParallelOld")
	cfgF, _ := WorkloadF.Config(TransactionConfig{OpsPerSec: 300, Seed: 5})
	cfgA, _ := WorkloadA.Config(TransactionConfig{OpsPerSec: 300, Seed: 5})
	rmw := TransactionTrace(srv, cfgF).Bands(Update, 0.01)
	plain := TransactionTrace(srv, cfgA).Bands(Update, 0.01)
	if rmw.AvgMS <= plain.AvgMS*1.3 {
		t.Errorf("RMW update avg %.2fms not above plain update %.2fms", rmw.AvgMS, plain.AvgMS)
	}
}
