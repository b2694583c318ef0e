package telemetry_test

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"jvmgc/internal/hdrhist"
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

	// Sample values read back bit for bit: the value field of each line
	// parses to the value written, ±Inf, NaN and −0 included.
	var vals telemetry.PromSnapshot
	for _, c := range []struct {
		name string
		v    float64
		line string
	}{
		{"v.pinf", math.Inf(1), "jvmgc_v_pinf +Inf"},
		{"v.ninf", math.Inf(-1), "jvmgc_v_ninf -Inf"},
		{"v.nan", math.NaN(), "jvmgc_v_nan NaN"},
		{"v.negzero", math.Copysign(0, -1), "jvmgc_v_negzero -0"},
		{"v.tenth", 0.1, "jvmgc_v_tenth 0.1"},
		{"v.third", 1.0 / 3, "jvmgc_v_third 0.3333333333333333"},
		{"v.tiny", 5e-324, "jvmgc_v_tiny 5e-324"},
		{"v.max", math.MaxFloat64, "jvmgc_v_max 1.7976931348623157e+308"},
	} {
		vals.Gauge(c.name, "Value.", c.v)
		vals.LabeledGauge(c.name+".labeled", "Labeled value.", []telemetry.LabeledValue{
			{Labels: []telemetry.Label{{Name: "node", Value: "a"}}, Value: c.v},
		})
		var buf bytes.Buffer
		if err := vals.Write(&buf); err != nil {
			t.Fatal(err)
		}
		name, field, _ := strings.Cut(c.line, " ")
		for _, line := range []string{c.line, name + `_labeled{node="a"} ` + field} {
			if !strings.Contains(buf.String(), "\n"+line+"\n") {
				t.Errorf("%s: no line %q in:\n%s", c.name, line, buf.String())
			}
		}
		got, err := strconv.ParseFloat(field, 64)
		if err != nil || math.Float64bits(got) != math.Float64bits(c.v) && !(math.IsNaN(got) && math.IsNaN(c.v)) {
			t.Errorf("%s: value field %q reads back as %v (%v), want the bits of %v", c.name, field, got, err, c.v)
		}
	}

	// Histogram buckets are cumulative, and the le="+Inf" bucket equals
	// _count.
	h := hdrhist.New(hdrhist.Config{SubBucketBits: 1, Min: 1e-3, Max: 1e3})
	for _, v := range []float64{0.002, 0.25, 0.25, 3, 700} {
		h.Record(v)
	}
	var hist telemetry.PromSnapshot
	hist.Histogram("d", "Histogram.", h)
	var buf bytes.Buffer
	if err := hist.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jvmgc_d Histogram.
# TYPE jvmgc_d histogram
jvmgc_d_bucket{le="0.0029296875"} 1
jvmgc_d_bucket{le="0.375"} 3
jvmgc_d_bucket{le="4"} 4
jvmgc_d_bucket{le="768"} 5
jvmgc_d_bucket{le="+Inf"} 5
jvmgc_d_sum 703.502
jvmgc_d_count 5
`
	if buf.String() != want {
		t.Errorf("histogram exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
	prev, inf := 0.0, math.NaN()
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, field, _ := strings.Cut(line, " ")
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		switch {
		case name == `jvmgc_d_bucket{le="+Inf"}`:
			inf = v
			fallthrough
		case strings.HasPrefix(name, "jvmgc_d_bucket"):
			if v < prev {
				t.Errorf("bucket %s = %v falls below the one before it (%v)", name, v, prev)
			}
			prev = v
		case name == "jvmgc_d_count" && v != inf:
			t.Errorf(`_count %v != le="+Inf" bucket %v`, v, inf)
		}
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
