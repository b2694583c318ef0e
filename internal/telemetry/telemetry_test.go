package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"jvmgc/internal/collector"
	"jvmgc/internal/demography"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
)

// runJVM runs one small G1 simulation with the given recorder attached
// (nil disables recording) and returns the finished JVM.
func runJVM(t testing.TB, collectorName string, rec *telemetry.Recorder, d simtime.Duration) *jvm.JVM {
	t.Helper()
	m := machine.New(machine.PaperTestbed())
	col, err := collector.New(collectorName, collector.Config{Machine: m})
	if err != nil {
		t.Fatal(err)
	}
	j := jvm.New(jvm.Config{
		Machine:   m,
		Collector: col,
		Geometry: heapmodel.Geometry{
			Heap: 2 * machine.GB, Young: 512 * machine.MB,
			SurvivorRatio: heapmodel.DefaultSurvivorRatio,
		},
		TLAB:     heapmodel.DefaultTLAB(),
		Recorder: rec,
		Seed:     42,
	}, jvm.Workload{
		Threads:   8,
		AllocRate: 600e6,
		Profile: demography.Profile{
			ShortFrac: 0.90, MeanShort: 200 * simtime.Millisecond,
			MediumFrac: 0.07, MeanMedium: 5 * simtime.Second,
		},
	})
	j.RunFor(d)
	return j
}

func record(t testing.TB, collectorName string) *telemetry.Recorder {
	rec := telemetry.New(telemetry.Config{SampleInterval: 100 * simtime.Millisecond})
	runJVM(t, collectorName, rec, 30*simtime.Second)
	return rec
}

// TestRecorderNilSafe exercises every method on a nil recorder.
func TestRecorderNilSafe(t *testing.T) {
	var r *telemetry.Recorder
	if id := r.Span(telemetry.TrackGC, "x", 0, simtime.Second, 0); id != 0 {
		t.Errorf("nil Span id %d", id)
	}
	r.Metrics().Add("c", 1)
	r.Sample(telemetry.Sample{})
	if r.Spans() != nil || r.Samples() != nil || r.Metrics().Counters() != nil {
		t.Error("nil recorder returned data")
	}
	if r.Metrics().Counter("c") != 0 || r.SampleInterval() != 0 {
		t.Error("nil recorder counted")
	}
	m := r.Metrics() // a nil set
	m.Gauge("g", "", func() float64 { return 1 })
	m.Histogram("h", "").Observe(1)
	m.Histogram("h", "").ObserveExemplar(1, "trace", 0)
	if st := m.State(); len(st.Counters)+len(st.Gauges)+len(st.Hists) != 0 {
		t.Errorf("nil set state %+v, want empty", st)
	}
	var buf bytes.Buffer
	for _, write := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return r.WriteChromeTrace(b) },
		func(b *bytes.Buffer) error { return r.WritePrometheus(b) },
	} {
		buf.Reset()
		if err := write(&buf); err != nil {
			t.Errorf("nil export error: %v", err)
		}
	}
}

// TestAttachingRecorderDoesNotChangeResults is the determinism invariant:
// the gclog of a run with a recorder attached is byte-identical to the
// same run without one.
func TestAttachingRecorderDoesNotChangeResults(t *testing.T) {
	for _, gc := range []string{"ParallelOld", "CMS", "G1"} {
		plain := runJVM(t, gc, nil, 30*simtime.Second)
		rec := telemetry.New(telemetry.Config{SampleInterval: 100 * simtime.Millisecond})
		traced := runJVM(t, gc, rec, 30*simtime.Second)
		if got, want := traced.Log().String(), plain.Log().String(); got != want {
			t.Errorf("%s: attaching a recorder changed the gclog:\n got %q\nwant %q", gc, got, want)
		}
		if len(rec.Spans()) == 0 || len(rec.Samples()) == 0 {
			t.Errorf("%s: recorder captured nothing", gc)
		}
	}
}

// TestDeterministicExports: identical seeds produce byte-identical
// exports in both formats.
func TestDeterministicExports(t *testing.T) {
	a, b := record(t, "G1"), record(t, "G1")
	exports := []struct {
		name  string
		write func(*telemetry.Recorder, *bytes.Buffer) error
	}{
		{"chrometrace", func(r *telemetry.Recorder, w *bytes.Buffer) error { return r.WriteChromeTrace(w) }},
		{"prometheus", func(r *telemetry.Recorder, w *bytes.Buffer) error { return r.WritePrometheus(w) }},
	}
	for _, e := range exports {
		var wa, wb bytes.Buffer
		if err := e.write(a, &wa); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if err := e.write(b, &wb); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Errorf("%s export not byte-identical across identical seeds", e.name)
		}
		if wa.Len() == 0 {
			t.Errorf("%s export empty", e.name)
		}
	}
}

// TestChromeTraceShape: the export is valid JSON and every GC pause span
// decomposes into at least three phase children.
func TestChromeTraceShape(t *testing.T) {
	rec := record(t, "G1")
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	// Count phase children per pause directly on the recording.
	pauses := 0
	spans := rec.Spans()
	for i, s := range spans {
		if s.Track != telemetry.TrackGC || s.Parent != 0 {
			continue
		}
		pauses++
		var children []telemetry.Span
		for _, c := range spans {
			if c.Parent == telemetry.SpanID(i+1) {
				children = append(children, c)
			}
		}
		if len(children) < 3 {
			t.Errorf("pause %q at %v has %d phase children, want >= 3",
				s.Name, s.Start, len(children))
		}
		var sum time.Duration
		for _, c := range children {
			sum += c.Duration
		}
		if sum != s.Duration {
			t.Errorf("pause %q: phase children sum %v != pause %v", s.Name, sum, s.Duration)
		}
	}
	if pauses == 0 {
		t.Fatal("no GC pause spans recorded")
	}
}

// TestPrometheusShape: at least 10 metric families, each with HELP and
// TYPE headers.
func TestPrometheusShape(t *testing.T) {
	rec := record(t, "CMS")
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
	}
	if families < 10 {
		t.Errorf("%d metric families, want >= 10:\n%s", families, buf.String())
	}
	if !strings.Contains(buf.String(), "jvmgc_gc_pause_seconds") {
		t.Error("missing pause summary family")
	}
}

func TestCounters(t *testing.T) {
	r := telemetry.New(telemetry.Config{})
	r.Metrics().Add("a", 2)
	r.Metrics().Add("b", 1)
	r.Metrics().Add("a", 3)
	if got := r.Metrics().Counter("a"); got != 5 {
		t.Errorf("counter a = %d", got)
	}
	cs := r.Metrics().Counters()
	if len(cs) != 2 || cs[0].Name != "a" || cs[1].Name != "b" {
		t.Errorf("counters %+v, want first-touch order", cs)
	}
	// A snapshot: a later Add, which may run on another goroutine while
	// the caller reads it, does not write into it.
	r.Metrics().Add("a", 1)
	if cs[0].Value != 5 {
		t.Errorf("snapshot of a reads %d after a later Add, want 5", cs[0].Value)
	}
}

// BenchmarkTelemetryDisabled measures a full jvm run with recording
// disabled — the nil-recorder fast path. Compare against
// BenchmarkTelemetryEnabled to see the recording cost.
func BenchmarkTelemetryDisabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runJVM(b, "G1", nil, 30*simtime.Second)
	}
}

// BenchmarkTelemetryEnabled is the same run with a recorder attached.
func BenchmarkTelemetryEnabled(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec := telemetry.New(telemetry.Config{SampleInterval: 100 * simtime.Millisecond})
		runJVM(b, "G1", rec, 30*simtime.Second)
	}
}
