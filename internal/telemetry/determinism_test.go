package telemetry

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/simtime"
)

// populate emits a fixed recording. When serialize is non-nil, the spans
// are emitted from worker goroutines that take turns in a fixed order
// (token passing), so the recorder is exercised concurrently while the
// emission order stays identical — the precondition for byte-identical
// exports.
func populate(r *Recorder, workers int) {
	type emit struct {
		track, name string
		start       simtime.Time
		dur         simtime.Duration
	}
	emits := make([]emit, 0, 24)
	for i := 0; i < 24; i++ {
		emits = append(emits, emit{
			track: TrackGC, name: "GC (young)",
			start: simtime.Time(i) * simtime.Time(simtime.Second),
			dur:   simtime.Duration(i+1) * simtime.Millisecond,
		})
	}
	if workers <= 1 {
		for _, e := range emits {
			id := r.Span(e.track, e.name, e.start, e.dur, 0, Str(AttrCause, "Allocation Failure"))
			r.Span(e.track, "ttsp", e.start, e.dur/10, id)
			r.Metrics().Add("gc.young", 1)
		}
		return
	}
	// Token ring: emission i happens on goroutine i%workers, strictly
	// after emission i-1 completed.
	tokens := make([]chan int, workers)
	for i := range tokens {
		tokens[i] = make(chan int, 1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range tokens[w] {
				e := emits[i]
				id := r.Span(e.track, e.name, e.start, e.dur, 0, Str(AttrCause, "Allocation Failure"))
				r.Span(e.track, "ttsp", e.start, e.dur/10, id)
				r.Metrics().Add("gc.young", 1)
				next := i + 1
				if next >= len(emits) {
					for _, t := range tokens {
						close(t)
					}
					return
				}
				tokens[next%workers] <- next
			}
		}(w)
	}
	tokens[0] <- 0
	wg.Wait()
}

// TestExportDeterminism is the exporter-determinism regression gate:
// Chrome-trace and Prometheus exports of recordings with identical
// emission order are byte-identical — including when the spans were
// emitted from multiple goroutines (the concurrent-recorder case).
func TestExportDeterminism(t *testing.T) {
	render := func(workers int) (chrome, prom string) {
		r := New(Config{})
		populate(r, workers)
		var cb, pb bytes.Buffer
		if err := r.WriteChromeTrace(&cb); err != nil {
			t.Fatal(err)
		}
		if err := r.WritePrometheus(&pb); err != nil {
			t.Fatal(err)
		}
		return cb.String(), pb.String()
	}

	seqChrome, seqProm := render(1)
	for run := 0; run < 3; run++ {
		c, p := render(4)
		if c != seqChrome {
			t.Fatalf("run %d: concurrent-recorder Chrome trace differs from sequential export", run)
		}
		if p != seqProm {
			t.Fatalf("run %d: concurrent-recorder Prometheus snapshot differs from sequential export", run)
		}
	}
}

// TestPromSnapshotByteIdentity: the same snapshot content renders
// byte-identically however many times it is built, in both classic and
// OpenMetrics modes.
func TestPromSnapshotByteIdentity(t *testing.T) {
	build := func(om bool) string {
		h := hdrhist.New(hdrhist.Config{})
		ex := hdrhist.NewExemplars(h)
		ex.Observe(0.02, "00f067aa0ba902b7", 1700000000)
		ex.Observe(1.7, "53ce929d0e0e4736", 1700000060)
		var s PromSnapshot
		s.OpenMetrics = om
		s.Counter("labd.jobs.completed", "done", 42)
		s.Gauge("labd.queue.depth", "depth", 3)
		s.HistogramExemplars("labd_job_latency_hist_seconds", "latency", h, ex)
		s.LabeledGauge("labd.slo.burn", "burn", []LabeledValue{
			{Labels: []Label{{"window", "5m"}}, Value: 0.5},
			{Labels: []Label{{"window", "1h"}}, Value: 0.25},
		})
		var b bytes.Buffer
		if err := s.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for _, om := range []bool{false, true} {
		a, b := build(om), build(om)
		if a != b {
			t.Fatalf("openmetrics=%v: snapshot not byte-identical across builds", om)
		}
		hasExemplar := strings.Contains(a, `# {trace_id="00f067aa0ba902b7"}`)
		hasEOF := strings.HasSuffix(a, "# EOF\n")
		if om && (!hasExemplar || !hasEOF) {
			t.Fatalf("OpenMetrics body missing exemplar (%v) or EOF (%v):\n%s", hasExemplar, hasEOF, a)
		}
		if !om && (hasExemplar || hasEOF) {
			t.Fatalf("classic text format leaked OpenMetrics constructs:\n%s", a)
		}
	}
}

// TestLabelEscaping is the label-escaping regression test: metric names
// are sanitized onto the Prometheus charset and label values with
// backslashes, quotes and newlines render escaped, never raw.
func TestLabelEscaping(t *testing.T) {
	var s PromSnapshot
	s.LabeledGauge("labd.weird-metric name", "esc", []LabeledValue{
		{Labels: []Label{{"path", `C:\temp\"quoted"` + "\nline2"}}, Value: 1},
	})
	var b bytes.Buffer
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `jvmgc_labd_weird_metric_name{path="C:\\temp\\\"quoted\"\nline2"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped sample line missing.\nwant substring: %s\ngot:\n%s", want, out)
	}
	if strings.Contains(out, "\"quoted\"\n") {
		t.Fatalf("raw newline or unescaped quote leaked into exposition:\n%s", out)
	}

	// Exemplar labels pass through the same escaping.
	h := hdrhist.New(hdrhist.Config{})
	ex := hdrhist.NewExemplars(h)
	ex.Observe(0.5, `id"with\slash`, 0)
	var s2 PromSnapshot
	s2.OpenMetrics = true
	s2.HistogramExemplars("hist", "h", h, ex)
	b.Reset()
	if err := s2.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# {trace_id="id\"with\\slash"}`) {
		t.Fatalf("exemplar label not escaped:\n%s", b.String())
	}
}
