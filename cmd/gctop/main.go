// Command gctop is a live terminal dashboard for a running gclabd
// daemon: it polls /metrics, /debug/slo and /debug/traces and redraws a
// fleet view — queue and worker occupancy over time, cache traffic, SLO
// burn rates with alert severity, the daemon's own Go GC vitals, and the
// slowest retained request traces.
//
//	gctop -addr http://localhost:8372
//	gctop -addr http://localhost:8372 -once   # one frame, no screen clear
//	gctop -addr http://localhost:8372 -fleet  # watch the whole fleet
//
// With -fleet, gctop polls the fleet rollup instead (/fleet/metrics,
// /fleet/slo, /fleet/traces, /fleet/nodes via any fleet node): the
// counters and histograms are exact cross-node aggregates, the slowest
// traces are the fleet-wide union labeled by node, and a membership
// panel shows each node's gossip state, drain status, queue and cache
// tiers, read from the node's /v1/state snapshot.
//
// gctop is read-only: it only issues GETs, so pointing it at a
// production daemon perturbs nothing but the /metrics scrape counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/textplot"
)

// sample is one poll of the daemon, flattened to what the view needs.
type sample struct {
	when time.Time
	ok   bool
	err  string

	queueDepth float64
	running    float64
	workers    float64
	submitted  float64
	hits       float64
	misses     float64
	cacheLen   float64
	uptime     float64

	goHeap, goGoal       float64
	goGC, goPauseP99     float64
	goroutines           float64
	tracesSeen, retained float64

	slo    obs.Status
	recent []obs.TraceSummary
	slow   []obs.TraceSummary
	nodes  []nodeRow
	epoch  uint64
}

// nodeRow is one fleet member in the -fleet membership panel. State and
// Incarnation come from gossip (alive/suspect/dead/left); a router
// without a gossiper reports its fixed view alive. Reading is the node's
// /v1/state snapshot (nil when it did not answer), whose metrics the
// panel reads by name.
type nodeRow struct {
	ID          string `json:"id"`
	State       string `json:"state"`
	Incarnation uint64 `json:"incarnation"`
	Reading     *struct {
		Draining bool `json:"draining"`
		telemetry.MetricsState
	} `json:"reading"`
}

// poller fetches daemon state and keeps a bounded history for plots.
type poller struct {
	base    string
	fleet   bool
	client  *http.Client
	history []sample
	keep    int
}

func newPoller(base string, keep int, fleet bool) *poller {
	return &poller{
		base:   strings.TrimRight(base, "/"),
		fleet:  fleet,
		client: &http.Client{Timeout: 15 * time.Second},
		keep:   keep,
	}
}

func (p *poller) get(path string) ([]byte, error) {
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// paths returns the poll endpoints for the current mode: a single
// daemon's debug surfaces, or the fleet rollup (same metric names, so
// everything downstream of the parse is mode-blind).
func (p *poller) paths() (metrics, slo, traces string) {
	if p.fleet {
		return "/fleet/metrics", "/fleet/slo", "/fleet/traces"
	}
	return "/metrics", "/debug/slo", "/debug/traces"
}

// poll reads the three debug surfaces into one sample. A daemon with
// tracing disabled (404 on /debug/slo) still yields a metrics-only view.
func (p *poller) poll(now time.Time) sample {
	metricsPath, sloPath, tracesPath := p.paths()
	s := sample{when: now}
	body, err := p.get(metricsPath)
	if err != nil {
		s.err = err.Error()
		p.push(s)
		return s
	}
	s.ok = true
	pts := obs.ParsePromText(string(body))
	read := func(name string) float64 {
		v, _ := obs.Metric(pts, name)
		return v
	}
	s.queueDepth = read("jvmgc_labd_queue_depth")
	s.running = read("jvmgc_labd_jobs_running")
	s.workers = read("jvmgc_labd_workers")
	s.submitted = read("jvmgc_labd_jobs_submitted_total")
	s.hits = read("jvmgc_labd_cache_hits_total")
	s.misses = read("jvmgc_labd_cache_misses_total")
	s.cacheLen = read("jvmgc_labd_cache_entries")
	s.uptime = read("jvmgc_labd_uptime_seconds")
	s.goHeap = read("jvmgc_labd_go_heap_objects_bytes")
	s.goGoal = read("jvmgc_labd_go_heap_goal_bytes")
	s.goGC = read("jvmgc_labd_go_gc_cycles")
	s.goPauseP99 = read("jvmgc_labd_go_gc_pause_p99_seconds")
	s.goroutines = read("jvmgc_labd_go_goroutines")
	s.tracesSeen = read("jvmgc_labd_traces_seen")
	s.retained = read("jvmgc_labd_traces_retained")

	if body, err := p.get(sloPath); err == nil {
		_ = json.Unmarshal(body, &s.slo)
	}
	if body, err := p.get(tracesPath); err == nil {
		var listing struct {
			Recent  []obs.TraceSummary `json:"recent"`
			Slowest []obs.TraceSummary `json:"slowest"`
		}
		if json.Unmarshal(body, &listing) == nil {
			s.recent = listing.Recent
			s.slow = listing.Slowest
		}
	}
	if p.fleet {
		if body, err := p.get("/fleet/nodes"); err == nil {
			var listing struct {
				Epoch uint64    `json:"epoch"`
				Nodes []nodeRow `json:"nodes"`
			}
			if json.Unmarshal(body, &listing) == nil {
				s.nodes = listing.Nodes
				s.epoch = listing.Epoch
			}
		}
	}
	p.push(s)
	return s
}

func (p *poller) push(s sample) {
	p.history = append(p.history, s)
	if len(p.history) > p.keep {
		p.history = p.history[len(p.history)-p.keep:]
	}
}

// render draws one full dashboard frame from the latest sample plus the
// poll history.
func (p *poller) render(s sample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gctop — %s — %s\n", p.base, s.when.Format("15:04:05"))
	if !s.ok {
		fmt.Fprintf(&b, "\n  DAEMON UNREACHABLE: %s\n", s.err)
		return b.String()
	}

	lookups := s.hits + s.misses
	hitRate := 0.0
	if lookups > 0 {
		hitRate = s.hits / lookups
	}
	fmt.Fprintf(&b, "up %s   workers %.0f   queue %.0f   running %.0f\n",
		(time.Duration(s.uptime) * time.Second).String(), s.workers, s.queueDepth, s.running)
	fmt.Fprintf(&b, "jobs %.0f submitted   cache %.0f entries, %.0f%% hit rate   traces %.0f seen / %.0f retained\n",
		s.submitted, s.cacheLen, 100*hitRate, s.tracesSeen, s.retained)

	if len(s.nodes) > 0 {
		fmt.Fprintf(&b, "\nfleet nodes (epoch %d):\n", s.epoch)
		for _, n := range s.nodes {
			member := n.State
			if member == "" {
				member = "alive"
			}
			if n.Incarnation > 0 {
				member = fmt.Sprintf("%s@%d", member, n.Incarnation)
			}
			st := n.Reading
			if st == nil {
				fmt.Fprintf(&b, "  %-12s %-10s UNREACHABLE\n", n.ID, member)
				continue
			}
			status := "ok"
			if st.Draining {
				status = "draining"
			}
			fmt.Fprintf(&b, "  %-12s %-10s %-8s queue %3.0f  running %3.0f  cache %4.0f (mem %d / disk %d / peer %d hits)\n",
				n.ID, member, status, st.Gauges["labd.queue.depth"], st.Gauges["labd.jobs.running"],
				st.Gauges["labd.cache.entries"], st.Counters["labd.cache.hits.memory"],
				st.Counters["labd.cache.hits.disk"], st.Counters["labd.cache.hits.peer"])
		}
	}

	// SLO block: severity plus per-window burn multipliers.
	if s.slo.Severity != "" {
		fmt.Fprintf(&b, "\nSLO [%s]  %d requests, %d slow, %d failed (latency < %.3gs, target %.4g)\n",
			strings.ToUpper(s.slo.Severity), s.slo.Total, s.slo.Slow, s.slo.Errors,
			s.slo.LatencyThresholdSeconds, s.slo.LatencyTarget)
		for _, w := range s.slo.Windows {
			fmt.Fprintf(&b, "  window %-8s latency burn %6.2fx   error burn %6.2fx\n",
				w.Window, w.LatencyBurnRate, w.ErrorBurnRate)
		}
	}

	// The observer's own runtime, beside the simulated JVMs it measures.
	fmt.Fprintf(&b, "\nself: heap %s / goal %s   %.0f goroutines   %.0f GC cycles   pause p99 %.3gms\n",
		bytesHuman(s.goHeap), bytesHuman(s.goGoal), s.goroutines, s.goGC, s.goPauseP99*1e3)

	// Occupancy over the poll history.
	if len(p.history) >= 2 {
		t0 := p.history[0].when
		var xs, queue, running []float64
		for _, h := range p.history {
			if !h.ok {
				continue
			}
			xs = append(xs, h.when.Sub(t0).Seconds())
			queue = append(queue, h.queueDepth)
			running = append(running, h.running)
		}
		if len(xs) >= 2 {
			plot := textplot.Scatter{
				Title:  "occupancy",
				XLabel: "seconds",
				YLabel: "jobs",
				Width:  64, Height: 10,
			}
			b.WriteString("\n" + plot.Render([]textplot.Series{
				{Name: "queued", Glyph: 'q', X: xs, Y: queue},
				{Name: "running", Glyph: 'r', X: xs, Y: running},
			}))
		}
	}

	if len(s.slow) > 0 {
		b.WriteString("\nslowest traces:\n")
		for _, tr := range s.slow {
			b.WriteString(traceLine(tr))
		}
	}
	if len(s.recent) > 0 {
		n := len(s.recent)
		if n > 5 {
			n = 5
		}
		b.WriteString("\nrecent traces:\n")
		for _, tr := range s.recent[:n] {
			b.WriteString(traceLine(tr))
		}
	}
	return b.String()
}

// traceLine renders one trace summary row; fleet-merged rows carry the
// retaining node's label.
func traceLine(tr obs.TraceSummary) string {
	line := fmt.Sprintf("  %s  %8.1fms  %-5s  %3d spans  %s",
		tr.ID, tr.DurationSeconds*1e3, tr.Status, tr.Spans, tr.Name)
	if tr.Node != "" {
		line += "  @" + tr.Node
	}
	return line + "\n"
}

func bytesHuman(v float64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.0fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8372", "gclabd base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll period")
		once     = flag.Bool("once", false, "render a single frame and exit (no screen clearing)")
		history  = flag.Int("history", 120, "poll samples kept for the occupancy plot")
		fleetTop = flag.Bool("fleet", false, "watch the whole fleet via /fleet/* on any fleet node")
	)
	flag.Parse()

	p := newPoller(*addr, *history, *fleetTop)
	if *once {
		frame := p.render(p.poll(time.Now()))
		fmt.Print(frame)
		if !p.history[len(p.history)-1].ok {
			os.Exit(1)
		}
		return
	}

	for {
		s := p.poll(time.Now())
		// ANSI clear + home keeps the frame stable like top(1).
		fmt.Print("\x1b[2J\x1b[H" + p.render(s))
		time.Sleep(*interval)
	}
}
