package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"jvmgc/internal/telemetry"
)

// pinEvent is one decoded trace event. Float ts/dur fields read an
// omitted value as 0, so an export may drop zero fields and still match.
type pinEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Cat  string         `json:"cat"`
	Args map[string]any `json:"args"`
}

// pinnedTrace records a fixed-clock request trace: wall spans at
// non-round nanoseconds, root annotations, two adopted simulated pauses
// (one near the 2 h mark) and one phase child.
func pinnedTrace(t *testing.T) *TraceData {
	clk := newFakeClock()
	tracer := NewTracer(Config{Seed: 1, Now: clk.Now})
	tid, err := ParseTraceID("0af7651916cd43dd8448eb211c80319c")
	if err != nil {
		t.Fatal(err)
	}
	tr := tracer.StartTrace("labd.request", tid, SpanID{})
	tr.Annotate(telemetry.Str("kind", "simulate"), telemetry.Str("cache", "miss"), telemetry.Num("bytes", 48213))

	lookup := tr.StartSpan("cache.lookup", "sched", 0)
	clk.Advance(1234567 * time.Nanosecond)
	lookup.End(telemetry.Str("tier", "miss"))
	tr.Add(telemetry.Span{Track: "sched", Name: "queue.wait", Duration: 2345679 * time.Nanosecond,
		Attrs: []telemetry.Attr{telemetry.Num("worker", 3)}})

	simStart := clk.Now()
	clk.Advance(300000123 * time.Nanosecond)
	simID := tr.SpanBetween("simulate", "exec", 0, simStart, clk.Now(),
		telemetry.Num("worker", 3), telemetry.Str("kind", "simulate"))
	young := tr.Add(telemetry.Span{Track: "sim.gc", Name: "GC (young)", Start: 1500000001 * time.Nanosecond,
		Duration: 12345678 * time.Nanosecond, Parent: simID, Sim: true,
		Attrs: []telemetry.Attr{telemetry.Str("cause", "Allocation Failure"),
			telemetry.Num("heap_before", 3221225472), telemetry.Num("heap_after", 805306368)}})
	tr.Add(telemetry.Span{Track: "sim.gc", Name: "ttsp", Start: 1500000001 * time.Nanosecond,
		Duration: 987 * time.Nanosecond, Parent: young, Sim: true})
	tr.Add(telemetry.Span{Track: "sim.gc", Name: "GC (full)", Start: 7199999999937 * time.Nanosecond,
		Duration: 1876543211 * time.Nanosecond, Parent: simID, Sim: true,
		Attrs: []telemetry.Attr{telemetry.Str("cause", "Ergonomics")}})

	encode := tr.StartSpan("encode", "exec", 0)
	clk.Advance(777777 * time.Nanosecond)
	encode.End(telemetry.Num("bytes", 48213))
	clk.Advance(3 * time.Nanosecond)
	tr.Finish(nil)
	td, ok := tracer.Store().Get(tid)
	if !ok {
		t.Fatal("pinned trace not filed")
	}
	return td
}

// TestRequestChromeExportPinned pins the request-trace Chrome export by
// its decoded events. Event order is free; ts and dur must match the
// golden to 1 ns.
func TestRequestChromeExportPinned(t *testing.T) {
	golden := []struct {
		name, ph string
		pid, tid int
		ts, dur  float64
		cat      string
		args     string
	}{
		{"process_name", "M", 1, 0, 0, 0, "", `{"name":"labd request 0af7651916cd43dd8448eb211c80319c"}`},
		{"thread_name", "M", 1, 1, 0, 0, "", `{"name":"request"}`},
		{"labd.request", "X", 1, 1, 0, 302012.47, "request", `{"bytes":48213,"cache":"miss","kind":"simulate","status":"ok","trace_id":"0af7651916cd43dd8448eb211c80319c"}`},
		{"thread_name", "M", 1, 2, 0, 0, "", `{"name":"sched"}`},
		{"cache.lookup", "X", 1, 2, 0, 1234.567, "sched", `{"tier":"miss"}`},
		{"queue.wait", "X", 1, 2, 0, 2345.6789999999996, "sched", `{"worker":3}`},
		{"thread_name", "M", 1, 3, 0, 0, "", `{"name":"exec"}`},
		{"simulate", "X", 1, 3, 1234.567, 300000.123, "exec", `{"kind":"simulate","worker":3}`},
		{"process_name", "M", 2, 0, 0, 0, "", `{"name":"simulation (simulated time)"}`},
		{"thread_name", "M", 2, 4, 0, 0, "", `{"name":"sim.gc"}`},
		{"GC (young)", "X", 2, 4, 1.5000000010000002e+06, 12345.678, "sim.gc", `{"cause":"Allocation Failure","heap_after":805306368,"heap_before":3221225472}`},
		{"ttsp", "X", 2, 4, 1.5000000010000002e+06, 0.987, "sim.gc", `null`},
		{"GC (full)", "X", 2, 4, 7.199999999937e+09, 1.876543211e+06, "sim.gc", `{"cause":"Ergonomics"}`},
		{"encode", "X", 1, 3, 301234.69, 777.777, "exec", `{"bytes":48213}`},
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, pinnedTrace(t)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []pinEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(golden) {
		t.Fatalf("%d events, want %d:\n%s", len(doc.TraceEvents), len(golden), buf.String())
	}
	const ns = 1e-3 // one nanosecond in the export's microseconds
	used := make([]bool, len(doc.TraceEvents))
	for _, g := range golden {
		found := false
		for i, e := range doc.TraceEvents {
			args, _ := json.Marshal(e.Args)
			if used[i] || e.Name != g.name || e.Ph != g.ph || e.Pid != g.pid || e.Tid != g.tid ||
				e.Cat != g.cat || string(args) != g.args ||
				math.Abs(e.Ts-g.ts) > ns || math.Abs(e.Dur-g.dur) > ns {
				continue
			}
			used[i], found = true, true
			break
		}
		if !found {
			t.Errorf("no event matches golden %+v in:\n%s", g, buf.String())
		}
	}
}
