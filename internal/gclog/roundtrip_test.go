package gclog_test

import (
	"bytes"
	"testing"

	"jvmgc/internal/collector"
	"jvmgc/internal/demography"
	"jvmgc/internal/gclog"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
)

// simulateAndExport runs one instrumented JVM and returns both its own
// gclog and the log re-parsed from the telemetry unified-log export —
// the full observability pipeline: simulate → export → parse.
func simulateAndExport(t *testing.T, collectorName string) (direct, reparsed *gclog.Log) {
	t.Helper()
	m := machine.New(machine.PaperTestbed())
	col, err := collector.New(collectorName, collector.Config{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.New(telemetry.Config{SampleInterval: 100 * simtime.Millisecond})
	j := jvm.New(jvm.Config{
		Machine:   m,
		Collector: col,
		Geometry: heapmodel.Geometry{
			Heap: 2 * machine.GB, Young: 512 * machine.MB,
			SurvivorRatio: heapmodel.DefaultSurvivorRatio,
		},
		TLAB:     heapmodel.DefaultTLAB(),
		Recorder: rec,
		Seed:     7,
	}, jvm.Workload{
		Threads:   8,
		AllocRate: 700e6,
		Profile: demography.Profile{
			ShortFrac: 0.90, MeanShort: 200 * simtime.Millisecond,
			MediumFrac: 0.07, MeanMedium: 5 * simtime.Second,
		},
	})
	j.RunFor(45 * simtime.Second)

	var buf bytes.Buffer
	if err := rec.WriteUnifiedLog(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := gclog.Parse(&buf)
	if err != nil {
		t.Fatalf("Parse rejected unified-log export: %v", err)
	}
	return j.Log(), parsed
}

// TestAnalyzeUnifiedLogExport runs the analyze query paths against a log
// that travelled through the telemetry exporter and checks they agree
// with the same queries on the simulator's own log.
func TestAnalyzeUnifiedLogExport(t *testing.T) {
	for _, gc := range []string{"ParallelOld", "CMS", "G1"} {
		t.Run(gc, func(t *testing.T) {
			direct, reparsed := simulateAndExport(t, gc)

			ds, rs := gclog.Summarize(direct), gclog.Summarize(reparsed)
			if rs.Pauses == 0 {
				t.Fatal("no pauses after round trip")
			}
			if rs.Pauses != ds.Pauses || rs.FullGCs != ds.FullGCs {
				t.Errorf("counts %d/%d after round trip, want %d/%d",
					rs.Pauses, rs.FullGCs, ds.Pauses, ds.FullGCs)
			}
			// The log's text rendering rounds durations to 0.1 ms and
			// timestamps to 1 ms, so the re-parsed statistics agree to
			// those tolerances.
			tol := simtime.Millisecond
			close := func(name string, a, b simtime.Duration, tol simtime.Duration) {
				d := a - b
				if d < 0 {
					d = -d
				}
				if d > tol {
					t.Errorf("%s = %v after round trip, want %v (±%v)", name, a, b, tol)
				}
			}
			close("MaxPause", rs.MaxPause, ds.MaxPause, tol)
			close("AvgPause", rs.AvgPause, ds.AvgPause, tol)
			close("P50", rs.P50, ds.P50, tol)
			close("P99", rs.P99, ds.P99, tol)
			nTol := simtime.Duration(rs.Pauses) * tol
			close("TotalPause", rs.TotalPause, ds.TotalPause, nTol)
			close("Span", rs.Span, ds.Span, 2*tol)

			// Histogram bucketing survives the round trip (0.1 ms duration
			// rounding can only flip a pause sitting exactly on a bucket
			// boundary, which the tolerance comparison above would flag
			// long before).
			if gclog.Histogram(reparsed) == "no stop-the-world pauses\n" {
				t.Error("histogram empty after round trip")
			}

			// Kind-filtered queries: pause/concurrent split is preserved.
			dp, df := direct.CountPauses()
			rp, rf := reparsed.CountPauses()
			if dp != rp || df != rf {
				t.Errorf("CountPauses %d/%d after round trip, want %d/%d", rp, rf, dp, df)
			}
			if len(direct.Pauses()) != len(reparsed.Pauses()) {
				t.Errorf("Pauses() %d after round trip, want %d",
					len(reparsed.Pauses()), len(direct.Pauses()))
			}
		})
	}
}
