package telemetry_test

import (
	"bytes"
	"strings"
	"testing"

	"jvmgc/internal/telemetry"
)

// TestPromSnapshotRendering: counters, gauges and summaries render as
// sorted, prefixed families; repeated builds are byte-identical.
func TestPromSnapshotRendering(t *testing.T) {
	build := func() string {
		var snap telemetry.PromSnapshot
		snap.Counter("labd.jobs.submitted", "Jobs submitted.", 7)
		snap.Gauge("labd.queue.depth", "Queue depth.", 3)
		snap.Summary("labd_job_latency_seconds", "Job latency.",
			[]float64{0.1, 0.2, 0.3, 0.4})
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("snapshot rendering is not deterministic:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE jvmgc_labd_jobs_submitted_total counter",
		"jvmgc_labd_jobs_submitted_total 7",
		"# TYPE jvmgc_labd_queue_depth gauge",
		"jvmgc_labd_queue_depth 3",
		"# TYPE jvmgc_labd_job_latency_seconds summary",
		"jvmgc_labd_job_latency_seconds_count 4",
		"jvmgc_labd_job_latency_seconds{quantile=\"0.5\"}",
	} {
		if !strings.Contains(a, want) {
			t.Errorf("snapshot missing %q in:\n%s", want, a)
		}
	}
	// Families must appear in sorted name order.
	ji := strings.Index(a, "jvmgc_labd_job_latency_seconds")
	si := strings.Index(a, "jvmgc_labd_jobs_submitted_total")
	qi := strings.Index(a, "jvmgc_labd_queue_depth")
	if !(ji < si && si < qi) {
		t.Errorf("families not sorted: latency@%d submitted@%d queue@%d", ji, si, qi)
	}
}

// TestPromSnapshotRecorderCounters: folding a Recorder's metric set into
// a snapshot matches the Recorder's own WritePrometheus counter families.
func TestPromSnapshotRecorderCounters(t *testing.T) {
	rec := telemetry.New(telemetry.Config{})
	rec.Metrics().Add("gc.young", 3)
	rec.Metrics().Add("gc.full", 1)

	var snap telemetry.PromSnapshot
	rec.Metrics().AddTo(&snap)
	var got bytes.Buffer
	if err := snap.Write(&got); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var want bytes.Buffer
	if err := rec.WritePrometheus(&want); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("counter families diverge:\nsnapshot:\n%s\nrecorder:\n%s",
			got.String(), want.String())
	}
}
