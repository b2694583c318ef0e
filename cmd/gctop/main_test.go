package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/fleet"
	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// cannedMetrics is a daemon's metric set as /v1/state carries it.
func cannedMetrics() telemetry.MetricsState {
	return telemetry.MetricsState{
		Counters: map[string]int64{
			"labd.jobs.submitted": 120, "labd.cache.hits": 80, "labd.cache.misses": 20,
		},
		Gauges: map[string]float64{
			"labd.queue.depth": 3, "labd.jobs.running": 2, "labd.workers": 4, "labd.cache.entries": 20,
			"labd.traces.seen": 100, "labd.traces.retained": 32,
		},
	}
}

var cannedSLO = &obs.Status{
	LatencyThresholdSeconds: 0.5, LatencyTarget: 0.99, ErrorTarget: 0.999,
	Severity: "warn", Total: 100, Slow: 7, Errors: 1,
	Windows: []obs.WindowStatus{
		{Window: "5m0s", LatencyBurnRate: 7.0, ErrorBurnRate: 10.0},
		{Window: "1h0m0s", LatencyBurnRate: 6.5, ErrorBurnRate: 8.0},
	},
}

var (
	cannedRecent = []obs.TraceSummary{{ID: "aaaabbbbccccddddaaaabbbbccccdddd", Name: "labd.request",
		DurationSeconds: 0.012, Status: "ok", Spans: 6}}
	cannedSlowest = []obs.TraceSummary{{ID: "ffffeeeeddddccccffffeeeeddddcccc", Name: "labd.request",
		DurationSeconds: 1.934, Status: "ok", Spans: 9, Slowest: true}}
)

// cannedState is a traced daemon's /v1/state reading.
func cannedState() labd.NodeState {
	return labd.NodeState{
		UptimeSeconds: 61,
		MetricsState:  cannedMetrics(),
		Runtime: obs.RuntimeSample{HeapObjectsBytes: 5242880, HeapGoalBytes: 10485760,
			GCCycles: 9, PauseP99: 0.0021, Goroutines: 14},
		SLO:     cannedSLO,
		Slowest: cannedSlowest,
		Recent:  cannedRecent,
	}
}

// serveJSON answers GET path with v's JSON encoding and counts every
// request the server receives.
func serveJSON(t *testing.T, path string, v any) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+path, func(w http.ResponseWriter, r *http.Request) { w.Write(body) })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &requests
}

func cannedDaemon(t *testing.T) *httptest.Server {
	ts, _ := serveJSON(t, "/v1/state", cannedState())
	return ts
}

// TestRenderFrame: a full poll of a canned daemon produces a frame with
// every dashboard block — header, SLO burn rates, self-GC vitals, the
// occupancy plot (after two samples) and the trace tables.
func TestRenderFrame(t *testing.T) {
	ts := cannedDaemon(t)
	p := newPoller(ts.URL, 16, false)

	t0 := time.Unix(1700000000, 0)
	p.poll(t0)
	frame := p.render(p.poll(t0.Add(2 * time.Second)))

	for _, want := range []string{
		"up 1m1s", "workers 4", "queue 3", "running 2",
		"jobs 120 submitted", "80% hit rate", "100 seen / 32 retained",
		"SLO [WARN]", "100 requests, 7 slow, 1 failed",
		"window 5m0s", "7.00x", "window 1h0m0s",
		"self: heap 5.0MiB / goal 10.0MiB", "9 GC cycles", "pause p99 2.1ms",
		"occupancy", "q", "r", "seconds",
		"slowest traces:", "ffffeeeeddddccccffffeeeeddddcccc", "1934.0ms",
		"recent traces:", "aaaabbbbccccddddaaaabbbbccccdddd", "6 spans",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestRenderUnreachable: a dead daemon renders an error banner instead
// of a stale dashboard, and the sample is marked not-ok.
func TestRenderUnreachable(t *testing.T) {
	p := newPoller("http://127.0.0.1:1", 4, false)
	s := p.poll(time.Unix(1700000000, 0))
	if s.ok {
		t.Fatal("unreachable daemon sampled ok")
	}
	frame := p.render(s)
	if !strings.Contains(frame, "DAEMON UNREACHABLE") {
		t.Errorf("no unreachable banner:\n%s", frame)
	}
}

// TestHistoryBound: the poll ring never exceeds its keep bound.
func TestHistoryBound(t *testing.T) {
	ts := cannedDaemon(t)
	p := newPoller(ts.URL, 3, false)
	t0 := time.Unix(1700000000, 0)
	for i := 0; i < 10; i++ {
		p.poll(t0.Add(time.Duration(i) * time.Second))
	}
	if len(p.history) != 3 {
		t.Fatalf("history = %d samples, want 3", len(p.history))
	}
	if got := p.history[len(p.history)-1].when; got != t0.Add(9*time.Second) {
		t.Errorf("history tail = %v, want the newest sample", got)
	}
}

// TestMetricsOnlyDaemon: a daemon without tracing or SLO monitoring
// (its reading has no slo, slowest or recent) still renders the metrics
// header, with no SLO or trace blocks.
func TestMetricsOnlyDaemon(t *testing.T) {
	ts, _ := serveJSON(t, "/v1/state", labd.NodeState{UptimeSeconds: 61, MetricsState: cannedMetrics()})
	p := newPoller(ts.URL, 4, false)
	frame := p.render(p.poll(time.Unix(1700000000, 0)))
	if !strings.Contains(frame, "workers 4") {
		t.Errorf("metrics header missing:\n%s", frame)
	}
	for _, absent := range []string{"SLO [", "slowest traces:", "recent traces:"} {
		if strings.Contains(frame, absent) {
			t.Errorf("untraced daemon rendered %q:\n%s", absent, frame)
		}
	}
}

// cannedFleetState is a /fleet/state reading: the rollup, and member
// rows for a serving node, a draining one, and a suspect that did not
// answer its state probe.
func cannedFleetState() fleet.FleetState {
	reading := func(id string, draining bool, queue, running, entries float64, mem, disk, peer int64) *labd.NodeState {
		return &labd.NodeState{Node: id, UptimeSeconds: 61, Draining: draining,
			MetricsState: telemetry.MetricsState{
				Counters: map[string]int64{
					"labd.cache.hits.memory": mem, "labd.cache.hits.disk": disk, "labd.cache.hits.peer": peer,
				},
				Gauges: map[string]float64{
					"labd.queue.depth": queue, "labd.jobs.running": running, "labd.cache.entries": entries,
				},
			}}
	}
	return fleet.FleetState{
		Self: "a", Epoch: 7,
		Nodes: []fleet.NodeInfo{
			{ID: "a", URL: "http://a", Self: true, State: "alive", Reading: reading("a", false, 3, 2, 20, 50, 4, 6)},
			{ID: "b", URL: "http://b", State: "alive", Incarnation: 1, Reading: reading("b", true, 0, 1, 8, 5, 0, 0)},
			{ID: "c", URL: "http://c", State: "suspect", Incarnation: 3},
		},
		MetricsState: cannedMetrics(),
		SLO:          cannedSLO,
		Slowest:      cannedSlowest,
	}
}

// TestRenderFleetPanel: with -fleet, gctop reads /fleet/state and draws
// one membership row per node from its reading — gossip state, ok or
// draining, queue, running, cache entries and the per-tier hits — and
// UNREACHABLE for a node with no reading.
func TestRenderFleetPanel(t *testing.T) {
	ts, _ := serveJSON(t, "/fleet/state", cannedFleetState())

	p := newPoller(ts.URL, 4, true)
	frame := p.render(p.poll(time.Unix(1700000000, 0)))
	for _, want := range []string{
		"workers 4", "SLO [WARN]", "slowest traces:",
		"\nfleet nodes (epoch 7):\n",
		"\n  a            alive      ok       queue   3  running   2  cache   20 (mem 50 / disk 4 / peer 6 hits)\n",
		"\n  b            alive@1    draining queue   0  running   1  cache    8 (mem 5 / disk 0 / peer 0 hits)\n",
		"\n  c            suspect@3  UNREACHABLE\n",
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

// TestOneRequestPerFrame: a frame is one GET, of /v1/state for a node
// and of /fleet/state with -fleet. A fleet rollup without a self row
// (a standalone router's) leaves out uptime and the self: line rather
// than printing zeros.
func TestOneRequestPerFrame(t *testing.T) {
	for _, tc := range []struct {
		fleet bool
		path  string
		doc   any
	}{
		{false, "/v1/state", cannedState()},
		{true, "/fleet/state", cannedFleetState()},
	} {
		ts, requests := serveJSON(t, tc.path, tc.doc)
		p := newPoller(ts.URL, 4, tc.fleet)
		t0 := time.Unix(1700000000, 0)
		for i := 0; i < 3; i++ {
			if s := p.poll(t0.Add(time.Duration(i) * time.Second)); !s.ok {
				t.Fatalf("fleet=%v: poll %d: %s", tc.fleet, i, s.err)
			}
		}
		if got := requests.Load(); got != 3 {
			t.Errorf("fleet=%v: three polls made %d requests, want 3", tc.fleet, got)
		}
	}

	router := cannedFleetState()
	router.Self = ""
	router.Nodes[0].Self = false
	ts, _ := serveJSON(t, "/fleet/state", router)
	p := newPoller(ts.URL, 4, true)
	frame := p.render(p.poll(time.Unix(1700000000, 0)))
	if !strings.Contains(frame, "workers 4") || strings.Contains(frame, "up ") || strings.Contains(frame, "self:") {
		t.Errorf("a router's frame should have no uptime or self: line:\n%s", frame)
	}
}

// stateCounter counts the /v1/state requests a node serves.
type stateCounter struct {
	h     http.Handler
	state atomic.Int64
}

func (c *stateCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/state" {
		c.state.Add(1)
	}
	c.h.ServeHTTP(w, r)
}

// TestLiveFleetFrame: against a real two-node fleet, built as a node
// process builds one without gossip (fleet.New, labd.New, SetLocal), a
// -fleet frame costs the peer one /v1/state request, and its self: line
// shows the polled node's own non-zero heap and goroutines.
func TestLiveFleetFrame(t *testing.T) {
	ids := []string{"a", "b"}
	lns := make(map[string]net.Listener, len(ids))
	members := make(map[string]string, len(ids))
	for _, id := range ids {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[id], members[id] = l, "http://"+l.Addr().String()
	}
	counters := make(map[string]*stateCounter, len(ids))
	for _, id := range ids {
		rt, err := fleet.New(fleet.Config{Self: id, Nodes: members})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := labd.New(labd.Config{NodeID: id, Peers: rt})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Drain(ctx)
		})
		rt.SetLocal(srv)
		counters[id] = &stateCounter{h: rt.Handler()}
		ts := &httptest.Server{Listener: lns[id], Config: &http.Server{Handler: counters[id]}}
		ts.Start()
		t.Cleanup(ts.Close)
	}

	runtime.GC() // runtime/metrics publishes heap accounting at a GC
	p := newPoller(members["a"], 4, true)
	s := p.poll(time.Now())
	if !s.ok {
		t.Fatalf("fleet poll: %s", s.err)
	}
	if got := counters["b"].state.Load(); got != 1 {
		t.Errorf("one -fleet frame cost the peer %d /v1/state requests, want 1", got)
	}
	if got := counters["a"].state.Load(); got != 0 {
		t.Errorf("the polled node served %d /v1/state requests, want 0 (its reading is in process)", got)
	}
	frame := p.render(s)
	if !regexp.MustCompile(`\nself: heap [1-9][^ ]* / goal [^ ]+ +[1-9][0-9]* goroutines`).MatchString(frame) {
		t.Errorf("self: line shows no heap or goroutines:\n%s", frame)
	}
	if !strings.Contains(frame, "\nup ") || !strings.Contains(frame, "fleet nodes (epoch ") {
		t.Errorf("fleet frame lacks uptime or the membership panel:\n%s", frame)
	}
}
