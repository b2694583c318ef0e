package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"jvmgc/internal/fleet"
	"jvmgc/internal/labd"
	"jvmgc/internal/telemetry"
)

const cannedMetrics = `# HELP jvmgc_labd_queue_depth Jobs waiting for a worker.
jvmgc_labd_queue_depth 3
jvmgc_labd_jobs_running 2
jvmgc_labd_workers 4
jvmgc_labd_jobs_submitted_total 120
jvmgc_labd_cache_hits_total 80
jvmgc_labd_cache_misses_total 20
jvmgc_labd_cache_entries 20
jvmgc_labd_uptime_seconds 61
jvmgc_labd_go_heap_objects_bytes 5242880
jvmgc_labd_go_heap_goal_bytes 10485760
jvmgc_labd_go_gc_cycles 9
jvmgc_labd_go_gc_pause_p99_seconds 0.0021
jvmgc_labd_go_goroutines 14
jvmgc_labd_traces_seen 100
jvmgc_labd_traces_retained 32
`

const cannedSLO = `{
  "latency_threshold_seconds": 0.5, "latency_target": 0.99, "error_target": 0.999,
  "severity": "warn", "total": 100, "slow": 7, "errors": 1,
  "windows": [
    {"window": "5m0s", "latency_burn_rate": 7.0, "error_burn_rate": 10.0},
    {"window": "1h0m0s", "latency_burn_rate": 6.5, "error_burn_rate": 8.0}
  ]
}`

const cannedTraces = `{
  "seen": 100, "retained": 32,
  "recent": [
    {"id": "aaaabbbbccccddddaaaabbbbccccdddd", "name": "labd.request",
     "duration_seconds": 0.012, "status": "ok", "spans": 6}
  ],
  "slowest": [
    {"id": "ffffeeeeddddccccffffeeeeddddcccc", "name": "labd.request",
     "duration_seconds": 1.934, "status": "ok", "spans": 9, "slowest": true}
  ]
}`

func cannedDaemon(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(cannedMetrics))
	})
	mux.HandleFunc("GET /debug/slo", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(cannedSLO))
	})
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(cannedTraces))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
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

// TestMetricsOnlyDaemon: a daemon without tracing (404 on the debug
// endpoints) still renders the metrics header, with no SLO or trace
// blocks.
func TestMetricsOnlyDaemon(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(cannedMetrics))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	p := newPoller(ts.URL, 4, false)
	frame := p.render(p.poll(time.Unix(1700000000, 0)))
	if !strings.Contains(frame, "workers 4") {
		t.Errorf("metrics header missing:\n%s", frame)
	}
	for _, absent := range []string{"SLO [", "slowest traces:"} {
		if strings.Contains(frame, absent) {
			t.Errorf("untraced daemon rendered %q:\n%s", absent, frame)
		}
	}
}

// cannedFleetNodes is a /fleet/nodes body built from the types the
// fleet serves it with: a serving node, a draining one, and a suspect
// that did not answer its state probe.
func cannedFleetNodes(t *testing.T) []byte {
	t.Helper()
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
	body, err := json.Marshal(struct {
		Self  string           `json:"self"`
		Epoch uint64           `json:"epoch"`
		Nodes []fleet.NodeInfo `json:"nodes"`
	}{"a", 7, []fleet.NodeInfo{
		{ID: "a", URL: "http://a", Self: true, State: "alive", Reading: reading("a", false, 3, 2, 20, 50, 4, 6)},
		{ID: "b", URL: "http://b", State: "alive", Incarnation: 1, Reading: reading("b", true, 0, 1, 8, 5, 0, 0)},
		{ID: "c", URL: "http://c", State: "suspect", Incarnation: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRenderFleetPanel: with -fleet, gctop polls the /fleet/* rollup
// and draws one membership row per node from its /v1/state reading —
// gossip state, ok or draining, queue, running, cache entries and the
// per-tier hits — and UNREACHABLE for a node with no reading.
func TestRenderFleetPanel(t *testing.T) {
	nodes := cannedFleetNodes(t)
	mux := http.NewServeMux()
	for path, body := range map[string][]byte{
		"GET /fleet/metrics": []byte(cannedMetrics),
		"GET /fleet/slo":     []byte(cannedSLO),
		"GET /fleet/traces":  []byte(cannedTraces),
		"GET /fleet/nodes":   nodes,
	} {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) { w.Write(body) })
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

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
