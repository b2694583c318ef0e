package obs

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/telemetry"
)

// fakeClock is a deterministic, manually advanced wall clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testTracer(clk *fakeClock) *Tracer {
	return NewTracer(Config{Seed: 42, Now: clk.Now, Capacity: 4, SlowestK: 2})
}

func TestTraceparentRoundTrip(t *testing.T) {
	g := NewIDGen(7)
	tid, sid := g.TraceID(), g.SpanID()
	h := Traceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q: len %d, want 55", h, len(h))
	}
	gt, gs, ok := ParseTraceparent(h)
	if !ok || gt != tid || gs != sid {
		t.Fatalf("round trip failed: %q -> %v %v ok=%v", h, gt, gs, ok)
	}

	for _, bad := range []string{
		"",
		"00-zz-xx-01",
		"01-" + tid.String() + "-" + sid.String() + "-01", // unknown version
		"00-00000000000000000000000000000000-" + sid.String() + "-01",
		"00-" + tid.String() + "-0000000000000000-01",
		h[:54],
	} {
		if _, _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", bad)
		}
	}

	if _, err := ParseTraceID(tid.String()); err != nil {
		t.Errorf("ParseTraceID round trip: %v", err)
	}
	if _, err := ParseTraceID("short"); err == nil {
		t.Error("ParseTraceID accepted a short id")
	}
}

func TestIDGenDeterministicAndUnique(t *testing.T) {
	a, b := NewIDGen(99), NewIDGen(99)
	seen := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		s1, s2 := a.SpanID(), b.SpanID()
		if s1 != s2 {
			t.Fatalf("same-seed generators diverged at %d", i)
		}
		if seen[s1] {
			t.Fatalf("duplicate span id at %d", i)
		}
		seen[s1] = true
	}
	if a.TraceID() == (TraceID{}) {
		t.Fatal("zero trace id minted")
	}
}

func TestNilTracerAndTraceAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if tr.Store() != nil {
		t.Fatal("nil tracer store")
	}
	trace := tr.StartTrace("x", TraceID{}, SpanID{})
	if trace != nil {
		t.Fatal("nil tracer started a trace")
	}
	// Every method on a nil trace must be safe.
	if !trace.ID().IsZero() {
		t.Fatal("nil trace has identity")
	}
	trace.Annotate(telemetry.Str("k", "v"))
	if id := trace.Add(telemetry.Span{Track: "b", Name: "a"}); id != 0 {
		t.Fatal("nil trace recorded a span")
	}
	sp := trace.StartSpan("a", "b", 0)
	if id := sp.End(); id != 0 {
		t.Fatal("nil active span recorded")
	}
	trace.Finish(nil)
}

func TestTraceLifecycleAndStore(t *testing.T) {
	clk := newFakeClock()
	tracer := testTracer(clk)

	tr := tracer.StartTrace("labd.request", TraceID{}, SpanID{})
	tr.Annotate(telemetry.Str("kind", "simulate"))
	cache := tr.StartSpan("cache.lookup", "sched", 0)
	clk.Advance(2 * time.Millisecond)
	cache.End(telemetry.Str("tier", "miss"))

	simStart := clk.Now()
	clk.Advance(300 * time.Millisecond)
	simID := tr.SpanBetween("simulate", "sched", 0, simStart, clk.Now(), telemetry.Str("kind", "simulate"))
	if simID != 2 {
		t.Fatalf("simulate span ID = %d, want 2 (its position + 1)", simID)
	}
	// A simulated-time GC pause child.
	tr.Add(telemetry.Span{
		Track: "sim.gc", Name: "GC (young)", Start: 1500 * time.Millisecond,
		Duration: 12 * time.Millisecond, Parent: simID, Sim: true,
		Attrs: []telemetry.Attr{telemetry.Str("cause", "Allocation Failure")},
	})

	clk.Advance(time.Millisecond)
	tr.Finish(nil)
	tr.Finish(errors.New("second finish must be ignored"))

	td, ok := tracer.Store().Get(tr.ID())
	if !ok {
		t.Fatal("finished trace not retained")
	}
	if td.Status != "ok" || td.Duration != 303*time.Millisecond {
		t.Fatalf("trace status/duration = %s/%v", td.Status, td.Duration)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(td.Spans))
	}
	// Spans keep their recording order, so span i has ID i+1.
	cacheSpan, sim, gc := td.Spans[0], td.Spans[1], td.Spans[2]
	if cacheSpan.Name != "cache.lookup" || cacheSpan.Duration != 2*time.Millisecond {
		t.Errorf("span 1 = %+v, want a 2ms cache.lookup", cacheSpan)
	}
	if sim.Name != "simulate" || sim.Parent != 0 || sim.Start != 2*time.Millisecond ||
		sim.Duration != 300*time.Millisecond || sim.Sim {
		t.Errorf("span 2 = %+v, want the root's 300ms wall-clock simulate", sim)
	}
	if gc.Name != "GC (young)" || gc.Parent != simID || !gc.Sim || gc.Start != 1500*time.Millisecond {
		t.Errorf("span 3 = %+v, want the simulate span's GC child", gc)
	}
	if a, ok := gc.Attr("cause"); !ok || a.Str != "Allocation Failure" {
		t.Errorf("gc cause attr = %+v ok=%v", a, ok)
	}
}

func TestTraceAdoptsRemoteIdentity(t *testing.T) {
	clk := newFakeClock()
	tracer := testTracer(clk)
	g := NewIDGen(5)
	tid, remote := g.TraceID(), g.SpanID()

	tr := tracer.StartTrace("labd.request", tid, remote)
	tr.Finish(nil)
	td, ok := tracer.Store().Get(tid)
	if !ok {
		t.Fatal("trace not filed under remote id")
	}
	if td.RemoteSpan != remote {
		t.Fatalf("remote span = %v, want %v", td.RemoteSpan, remote)
	}
}

func TestTraceSpanBound(t *testing.T) {
	clk := newFakeClock()
	tracer := NewTracer(Config{Seed: 1, Now: clk.Now, MaxSpans: 3})
	tr := tracer.StartTrace("r", TraceID{}, SpanID{})
	for i := 0; i < 10; i++ {
		tr.Add(telemetry.Span{Track: "t", Name: "s", Duration: time.Millisecond})
	}
	tr.Finish(nil)
	td, _ := tracer.Store().Get(tr.ID())
	if len(td.Spans) != 3 || td.Dropped != 7 {
		t.Fatalf("spans=%d dropped=%d, want 3/7", len(td.Spans), td.Dropped)
	}
}

func TestStoreRingAndSlowestRetention(t *testing.T) {
	clk := newFakeClock()
	tracer := NewTracer(Config{Seed: 3, Now: clk.Now, Capacity: 4, SlowestK: 2})

	// File 10 traces with durations 10ms, 20ms, ..., 100ms.
	ids := make([]TraceID, 10)
	for i := 0; i < 10; i++ {
		tr := tracer.StartTrace("r", TraceID{}, SpanID{})
		clk.Advance(time.Duration(i+1) * 10 * time.Millisecond)
		tr.Finish(nil)
		ids[i] = tr.ID()
	}
	st := tracer.Store()
	if st.Seen() != 10 {
		t.Fatalf("seen = %d", st.Seen())
	}

	// Ring holds the last 4; slowest-2 are the 90ms and 100ms traces
	// (which are also in the ring here).
	recent := st.Recent(len(ids))
	if len(recent) != 4 || recent[0].ID != ids[9].String() || recent[3].ID != ids[6].String() {
		t.Fatalf("recent = %+v", recent)
	}
	slow := st.Slowest()
	if len(slow) != 2 || slow[0].ID != ids[9].String() || slow[1].ID != ids[8].String() {
		t.Fatalf("slowest = %+v", slow)
	}

	// Now flood with fast traces: the slowest two must survive ring
	// eviction, everything else from the old ring must be dropped.
	for i := 0; i < 8; i++ {
		tr := tracer.StartTrace("fast", TraceID{}, SpanID{})
		clk.Advance(time.Millisecond)
		tr.Finish(nil)
	}
	if _, ok := st.Get(ids[9]); !ok {
		t.Error("slowest trace evicted by fast flood")
	}
	if _, ok := st.Get(ids[8]); !ok {
		t.Error("second-slowest trace evicted by fast flood")
	}
	if _, ok := st.Get(ids[6]); ok {
		t.Error("fast old trace survived both ring and slowest eviction")
	}
	// Retained = 4 ring + 2 slowest (disjoint now).
	if st.Len() != 6 {
		t.Fatalf("retained = %d, want 6", st.Len())
	}
	if got := st.Slowest(); got[0].ID != ids[9].String() || !got[0].Slowest {
		t.Fatalf("slowest after flood = %+v", got)
	}
}

func TestStoreConcurrentAdds(t *testing.T) {
	clk := newFakeClock()
	tracer := NewTracer(Config{Seed: 8, Now: clk.Now, Capacity: 16, SlowestK: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := tracer.StartTrace("r", TraceID{}, SpanID{})
				tr.Add(telemetry.Span{Track: "t", Name: "s", Duration: time.Millisecond})
				tr.Finish(nil)
			}
		}()
	}
	wg.Wait()
	st := tracer.Store()
	if st.Seen() != 1600 {
		t.Fatalf("seen = %d", st.Seen())
	}
	if st.Len() == 0 || st.Len() > 16+4 {
		t.Fatalf("retained = %d outside (0, 20]", st.Len())
	}
}

func TestChromeExport(t *testing.T) {
	clk := newFakeClock()
	tracer := testTracer(clk)
	tr := tracer.StartTrace("labd.request", TraceID{}, SpanID{})
	sp := tr.StartSpan("simulate", "sched", 0)
	clk.Advance(50 * time.Millisecond)
	simID := sp.End()
	tr.Add(telemetry.Span{
		Track: "sim.gc", Name: "GC (young)", Start: time.Second,
		Duration: 5 * time.Millisecond, Parent: simID, Sim: true,
	})
	tr.Finish(nil)
	td, _ := tracer.Store().Get(tr.ID())

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, td); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"traceEvents"`, `"simulate"`, `"GC (young)"`,
		`"simulation (simulated time)"`, td.ID.String(),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome export missing %s:\n%s", want, out)
		}
	}
	// Determinism: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := WriteChromeTrace(&buf2, td); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("chrome export not byte-identical across renders")
	}
}
