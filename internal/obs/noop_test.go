package obs

import (
	"testing"
	"time"

	"jvmgc/internal/telemetry"
)

// TestNilTraceZeroAlloc pins the disabled path's cost: every method on a
// nil Trace/Tracer/SLO must be allocation-free, because the daemon calls
// them unconditionally on every request whether tracing is on or not.
// Variadic attrs are the one exception a caller can introduce — passing
// literals allocates the args slice at the call site — so hot paths pass
// none, exactly as exercised here.
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	var tc *Tracer
	var slo *SLO
	allocs := testing.AllocsPerRun(100, func() {
		_ = tc.Enabled()
		_ = tc.StartTrace("x", TraceID{1}, SpanID{})
		_ = tr.ID()
		tr.Annotate()
		_ = tr.Add(telemetry.Span{Track: "t", Name: "s", Duration: time.Millisecond})
		sp := tr.StartSpan("s", "t", 0)
		sp.End()
		tr.Finish(nil)
		slo.Observe(time.Millisecond, false)
	})
	if allocs != 0 {
		t.Fatalf("nil-receiver path allocates %.0f per op, want 0", allocs)
	}
}

// BenchmarkNoopTracePoint measures the per-request cost of the disabled
// tracer: the full set of calls the daemon makes per job, on nil
// receivers. Guarded by the bench smoke in ci.sh.
func BenchmarkNoopTracePoint(b *testing.B) {
	var tr *Trace
	var slo *SLO
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Annotate()
		sp := tr.StartSpan("queue.wait", "sched", 0)
		sp.End()
		_ = tr.Add(telemetry.Span{Track: "request", Name: "encode", Duration: time.Microsecond})
		tr.Finish(nil)
		slo.Observe(time.Microsecond, false)
	}
}
