package labd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// tracedDaemon starts a daemon with tracing and SLO monitoring on; a
// config without a Tracer gets a fixed-seed one.
func tracedDaemon(t *testing.T, cfg labd.Config) (*client.Client, *labd.Server) {
	t.Helper()
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracer(obs.Config{Seed: 7})
	}
	cfg.SLO = obs.NewSLO(obs.SLOConfig{LatencyThreshold: 200 * time.Millisecond})
	c, srv := startDaemon(t, cfg)
	c.Trace = true
	return c, srv
}

// getJSON fetches a daemon URL and decodes its JSON body into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decode: %v\n%s", url, err, body)
	}
}

// wireTrace is the /debug/traces/{id} response shape.
type wireTrace struct {
	ID string `json:"id"`
	obs.TraceData
}

var seed42Spec = labd.JobSpec{
	Kind:            labd.KindSimulate,
	Collector:       "CMS",
	HeapBytes:       4 << 30,
	DurationSeconds: 10,
	Seed:            42,
}

// TestEndToEndTracing is the observability layer's acceptance test: one
// traced submission through client → HTTP → scheduler → worker →
// simulation produces a single trace whose spans cover queue wait,
// cache lookup, simulate (with the simulated JVM's GC pauses adopted as
// children) and encode; the result bytes are identical to an untraced
// daemon's; and the OpenMetrics latency histogram carries an exemplar
// whose trace ID resolves at /debug/traces/{id}.
func TestEndToEndTracing(t *testing.T) {
	c, _ := tracedDaemon(t, labd.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	sub, err := c.Submit(ctx, seed42Spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.TraceID == "" {
		t.Fatal("traced submission returned no trace id")
	}
	if sub.Cache != "miss" {
		t.Fatalf("first submission disposition = %q, want miss", sub.Cache)
	}

	// The job record carries the trace id too.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].TraceID != sub.TraceID {
		t.Errorf("job record trace id = %+v, want %s", jobs, sub.TraceID)
	}

	// One trace, resolvable by the ID the client saw, spanning the whole
	// request path.
	var td wireTrace
	getJSON(t, c.BaseURL+"/debug/traces/"+sub.TraceID, &td)
	if td.ID != sub.TraceID {
		t.Fatalf("trace id = %s, want %s", td.ID, sub.TraceID)
	}
	if td.Status != "ok" {
		t.Fatalf("trace status = %s (%s)", td.Status, td.Error)
	}
	if td.RemoteSpan.IsZero() {
		t.Error("trace lost the client's remote span (traceparent not adopted)")
	}

	spans := map[string]telemetry.Span{}
	var simID telemetry.SpanID
	for i, s := range td.Spans {
		if _, dup := spans[s.Name]; !dup {
			spans[s.Name] = s
		}
		// A trace span's ID is its position + 1.
		if s.Name == "simulate" && simID == 0 {
			simID = telemetry.SpanID(i + 1)
		}
	}
	for _, name := range []string{"cache.lookup", "queue.wait", "simulate", "encode"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("trace missing %q span (got %v)", name, names(td.Spans))
		}
	}
	if a, ok := spans["cache.lookup"].Attr("tier"); !ok || a.Str != "miss" {
		t.Errorf("cache.lookup tier = %+v, want miss", a)
	}
	if _, ok := spans["queue.wait"].Attr("worker"); !ok {
		t.Error("queue.wait span has no worker attribute")
	}
	// queue.wait is the enqueue-to-claim interval: the job is queued by
	// its cache lookup's miss, so the wait ends no earlier than the lookup.
	lookup, wait := spans["cache.lookup"], spans["queue.wait"]
	if wait.Start+wait.Duration < lookup.Start+lookup.Duration {
		t.Errorf("queue.wait [%v +%v] ends before the cache lookup that queued it [%v +%v]",
			wait.Start, wait.Duration, lookup.Start, lookup.Duration)
	}

	// The simulate span adopts at least one simulated-time GC pause from
	// the flight recorder.
	gcChildren := 0
	for _, s := range td.Spans {
		if s.Parent == simID && s.Sim && s.Track == "sim.gc" {
			gcChildren++
		}
	}
	if gcChildren == 0 {
		t.Errorf("simulate span has no GC pause children (spans: %v)", names(td.Spans))
	}

	// Tracing never perturbs results: an untraced daemon produces
	// byte-identical bytes for the same spec.
	plain, _ := startDaemon(t, labd.Config{Workers: 2, QueueDepth: 8})
	untraced, err := plain.Submit(ctx, seed42Spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub.Bytes, untraced.Bytes) {
		t.Errorf("traced result differs from untraced (%d vs %d bytes)",
			len(sub.Bytes), len(untraced.Bytes))
	}

	// The OpenMetrics exposition carries an exemplar on the latency
	// histogram whose trace ID resolves in the store.
	req, _ := http.NewRequest(http.MethodGet, c.BaseURL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	om, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !regexp.MustCompile(`application/openmetrics-text`).MatchString(ct) {
		t.Errorf("OpenMetrics Content-Type = %q", ct)
	}
	if !bytes.HasSuffix(bytes.TrimSpace(om), []byte("# EOF")) {
		t.Error("OpenMetrics body missing # EOF terminator")
	}
	exRe := regexp.MustCompile(`jvmgc_labd_job_latency_hist_seconds_bucket\{[^}]*\} \S+ # \{trace_id="([0-9a-f]{32})"\}`)
	m := exRe.FindSubmatch(om)
	if m == nil {
		t.Fatalf("no exemplar on the latency histogram:\n%s", om)
	}
	var exTrace wireTrace
	getJSON(t, c.BaseURL+"/debug/traces/"+string(m[1]), &exTrace)
	if exTrace.ID != sub.TraceID {
		t.Errorf("exemplar trace = %s, want %s", exTrace.ID, sub.TraceID)
	}

	// The classic exposition must NOT leak exemplars (they are illegal in
	// text format 0.0.4).
	classic, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if regexp.MustCompile(` # \{`).MatchString(classic) {
		t.Error("classic text format carries exemplars")
	}
	for _, line := range []string{
		`^jvmgc_labd_queue_wait_seconds_count 1$`,
		`^jvmgc_labd_traces_seen 1$`,
		`^jvmgc_labd_go_gc_cycles \S+$`, // the runtime's self-observability
		`^jvmgc_labd_slo_latency_burn_rate\{window="5m0s"\} \S+$`,
	} {
		if !regexp.MustCompile("(?m)" + line).MatchString(classic) {
			t.Errorf("classic exposition has no line matching %s", line)
		}
	}

	// The daemon's reading carries the same facts: the trace as its one
	// recent entry, the SLO's request, the traces-seen gauge and the
	// runtime's vitals.
	var st labd.NodeState
	getJSON(t, c.BaseURL+"/v1/state", &st)
	if len(st.Recent) != 1 || st.Recent[0].ID != sub.TraceID {
		t.Errorf("reading's recent traces = %+v, want the one trace %s", st.Recent, sub.TraceID)
	}
	if st.SLO == nil || st.SLO.Total != 1 {
		t.Errorf("reading's SLO = %+v, want total 1", st.SLO)
	}
	if got := st.Gauges["labd.traces.seen"]; got != 1 {
		t.Errorf("reading's labd.traces.seen = %g, want 1", got)
	}
	if rs := st.Runtime; rs.HeapObjectsBytes <= 0 || rs.Goroutines < 1 {
		t.Errorf("reading's runtime vitals = %+v, want a non-zero heap and goroutines", rs)
	}

	// /debug/traces lists the trace; /debug/slo reports the traffic.
	var listing struct {
		Seen    int64              `json:"seen"`
		Recent  []obs.TraceSummary `json:"recent"`
		Slowest []obs.TraceSummary `json:"slowest"`
	}
	getJSON(t, c.BaseURL+"/debug/traces", &listing)
	if listing.Seen != 1 || len(listing.Recent) != 1 || listing.Recent[0].ID != sub.TraceID {
		t.Errorf("trace listing = %+v", listing)
	}
	var slo obs.Status
	getJSON(t, c.BaseURL+"/debug/slo", &slo)
	if slo.Total != 1 {
		t.Errorf("SLO total = %d, want 1", slo.Total)
	}

	// Chrome export of the trace loads as trace-event JSON.
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	getJSON(t, c.BaseURL+"/debug/traces/"+sub.TraceID+"/chrome", &chrome)
	if len(chrome.TraceEvents) < 5 {
		t.Errorf("chrome export has %d events", len(chrome.TraceEvents))
	}
}

func names(spans []telemetry.Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestEndToEndTraceCacheDispositions: hits and coalesced followers get
// their own traces with the right cache tier on the lookup span.
func TestEndToEndTraceCacheDispositions(t *testing.T) {
	c, _ := tracedDaemon(t, labd.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	first, err := c.Submit(ctx, seed42Spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Submit(ctx, seed42Spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("second disposition = %q", second.Cache)
	}
	if second.TraceID == first.TraceID {
		t.Fatal("two submissions shared one trace")
	}
	var td wireTrace
	getJSON(t, c.BaseURL+"/debug/traces/"+second.TraceID, &td)
	tierOK := false
	for _, s := range td.Spans {
		if s.Name == "cache.lookup" {
			if a, ok := s.Attr("tier"); ok && a.Str == "memory" {
				tierOK = true
			}
		}
		if s.Name == "simulate" {
			t.Error("cache hit ran a simulation span")
		}
	}
	if !tierOK {
		t.Errorf("hit trace lacks memory-tier cache.lookup: %v", names(td.Spans))
	}
}

// stubPeers is a peer tier that never finds a result; probed is what it
// reports about asking a peer.
type stubPeers struct{ probed bool }

func (p stubPeers) Fetch(context.Context, string) ([]byte, bool, bool) { return nil, false, p.probed }

// TestEndToEndTracePeerSkip: a miss whose peer fetch asked no peer (a
// fleet node's closed probe window) counts no labd.cache.peer.misses
// and traces its cache.peer span as hit=skipped; one that asked counts
// a peer miss and traces hit=miss.
func TestEndToEndTracePeerSkip(t *testing.T) {
	for _, want := range []struct {
		probed bool
		hit    string
		misses int64
	}{{false, "skipped", 0}, {true, "miss", 1}} {
		c, srv := tracedDaemon(t, labd.Config{Workers: 1, QueueDepth: 4, Peers: stubPeers{want.probed}})
		sub, err := c.Submit(context.Background(), seed42Spec)
		if err != nil || sub.Cache != "miss" {
			t.Fatalf("probed=%v: %+v, %v; want a miss", want.probed, sub, err)
		}
		var td wireTrace
		getJSON(t, c.BaseURL+"/debug/traces/"+sub.TraceID, &td)
		hit := ""
		for _, s := range td.Spans {
			if a, ok := s.Attr("hit"); ok && s.Name == "cache.peer" {
				hit = a.Str
			}
		}
		if hit != want.hit {
			t.Errorf("probed=%v: cache.peer hit=%q, want %q (spans %v)", want.probed, hit, want.hit, names(td.Spans))
		}
		if n := srv.NodeState().Counters["labd.cache.peer.misses"]; n != want.misses {
			t.Errorf("probed=%v: labd.cache.peer.misses %d, want %d", want.probed, n, want.misses)
		}
	}
}

// TestEndToEndTraceChaos drives a traced daemon under injected faults
// and concurrent clients (the -race CI step): every submission still
// yields a coherent trace — one trace per request, error traces filed
// with error status, and the trace/metrics surfaces stay consistent.
func TestEndToEndTraceChaos(t *testing.T) {
	chaos := faultinject.New(11)
	chaos.Set(labd.FaultJobError, faultinject.Rule{Every: 3})
	chaos.Set(labd.FaultJobLatency, faultinject.Rule{Every: 2, Delay: 5 * time.Millisecond})
	tracer := obs.NewTracer(obs.Config{Seed: 7})
	c, _ := tracedDaemon(t, labd.Config{Workers: 4, QueueDepth: 32, Chaos: chaos, Tracer: tracer})
	ctx := context.Background()

	const n = 12
	subs := make([]*client.Submission, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := seed42Spec
			spec.Seed = uint64(100 + i) // distinct specs: no coalescing
			spec.DurationSeconds = 2
			subs[i], errs[i] = c.Submit(ctx, spec)
		}(i)
	}
	wg.Wait()

	okCount, failCount := 0, 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			failCount++
			continue
		}
		okCount++
		var td wireTrace
		getJSON(t, c.BaseURL+"/debug/traces/"+subs[i].TraceID, &td)
		if td.Status != "ok" {
			t.Errorf("successful submission %d has trace status %s", i, td.Status)
		}
		found := false
		for _, s := range td.Spans {
			if s.Name == "simulate" {
				found = true
			}
		}
		if !found {
			t.Errorf("trace %d missing simulate span: %v", i, names(td.Spans))
		}
	}
	if okCount == 0 || failCount == 0 {
		t.Fatalf("chaos run not mixed: %d ok, %d failed (Every:3 error rule)", okCount, failCount)
	}
	store := tracer.Store()
	if store.Seen() != n {
		t.Errorf("store saw %d traces, want %d", store.Seen(), n)
	}
	// Error traces are filed too, with error status.
	errTraces := 0
	for _, s := range store.Recent(n) {
		if s.Status == "error" {
			errTraces++
		}
	}
	if errTraces != failCount {
		t.Errorf("error traces = %d, want %d", errTraces, failCount)
	}
	var slo obs.Status
	getJSON(t, c.BaseURL+"/debug/slo", &slo)
	if int(slo.Total) != n || int(slo.Errors) != failCount {
		t.Errorf("SLO total/errors = %d/%d, want %d/%d", slo.Total, slo.Errors, n, failCount)
	}
}
