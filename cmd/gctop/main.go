// Command gctop is a live terminal dashboard for a running gclabd
// daemon. Each frame is one GET of the daemon's reading, /v1/state,
// drawn as queue and worker occupancy over time, cache traffic, SLO
// burn rates with alert severity, the daemon's own Go GC vitals, and
// the slowest and most recent retained request traces.
//
//	gctop -addr http://localhost:8372
//	gctop -addr http://localhost:8372 -once   # one frame, no screen clear
//	gctop -addr http://localhost:8372 -fleet  # watch the whole fleet
//
// With -fleet, each frame is one GET of the fleet's reading,
// /fleet/state, from any fleet node or standalone router: the counters
// and histograms are exact cross-node aggregates, the slowest traces
// are the fleet-wide union labeled by node, and a membership panel
// shows each member's gossip state, drain status, queue and cache tiers
// from its row's reading. Uptime and the Go vitals are the polled
// node's own; a standalone router runs no daemon, so its frame leaves
// them out.
//
// gctop is read-only: it only issues GETs, so pointing it at a
// production daemon perturbs nothing.
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

	"jvmgc/internal/fleet"
	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/textplot"
)

// sample is one poll: the reading a frame is drawn from, in the types
// the server writes it with.
type sample struct {
	when time.Time
	ok   bool
	err  string

	// The node's metric set, or the fleet's merged one.
	telemetry.MetricsState
	// self is the polled node's own reading (uptime, Go vitals); nil
	// on a standalone router.
	self   *labd.NodeState
	slo    *obs.Status
	slow   []obs.TraceSummary
	recent []obs.TraceSummary
	// nodes and epoch are the fleet's membership (-fleet only).
	nodes []fleet.NodeInfo
	epoch uint64
}

// occupancy is what the poll history keeps of a sample: the plot's two
// series.
type occupancy struct {
	when            time.Time
	ok              bool
	queued, running float64
}

// poller reads one document per frame and keeps a bounded occupancy
// history for the plot.
type poller struct {
	base    string
	fleet   bool
	client  *http.Client
	history []occupancy
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

// poll GETs the frame's one document, /v1/state or with -fleet
// /fleet/state, into a sample.
func (p *poller) poll(now time.Time) sample {
	s := sample{when: now}
	if err := p.read(&s); err != nil {
		s.err = err.Error()
	} else {
		s.ok = true
	}
	p.push(s)
	return s
}

func (p *poller) read(s *sample) error {
	path := "/v1/state"
	if p.fleet {
		path = "/fleet/state"
	}
	resp, err := p.client.Get(p.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	if !p.fleet {
		var st labd.NodeState
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("GET %s: %w", path, err)
		}
		s.MetricsState, s.self, s.slo, s.slow, s.recent = st.MetricsState, &st, st.SLO, st.Slowest, st.Recent
		return nil
	}
	var fs fleet.FleetState
	if err := json.Unmarshal(body, &fs); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	s.MetricsState, s.slo, s.slow, s.nodes, s.epoch = fs.MetricsState, fs.SLO, fs.Slowest, fs.Nodes, fs.Epoch
	for _, n := range fs.Nodes {
		if n.Self {
			s.self = n.Reading
		}
	}
	return nil
}

func (p *poller) push(s sample) {
	p.history = append(p.history, occupancy{
		when: s.when, ok: s.ok,
		queued: s.Gauges["labd.queue.depth"], running: s.Gauges["labd.jobs.running"],
	})
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

	g, c := s.Gauges, s.Counters
	hits, lookups := c["labd.cache.hits"], c["labd.cache.hits"]+c["labd.cache.misses"]
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(hits) / float64(lookups)
	}
	if s.self != nil {
		fmt.Fprintf(&b, "up %s   ", (time.Duration(s.self.UptimeSeconds) * time.Second).String())
	}
	fmt.Fprintf(&b, "workers %.0f   queue %.0f   running %.0f\n",
		g["labd.workers"], g["labd.queue.depth"], g["labd.jobs.running"])
	fmt.Fprintf(&b, "jobs %d submitted   cache %.0f entries, %.0f%% hit rate   traces %.0f seen / %.0f retained\n",
		c["labd.jobs.submitted"], g["labd.cache.entries"], 100*hitRate,
		g["labd.traces.seen"], g["labd.traces.retained"])

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
	if s.slo != nil {
		fmt.Fprintf(&b, "\nSLO [%s]  %d requests, %d slow, %d failed (latency < %.3gs, target %.4g)\n",
			strings.ToUpper(s.slo.Severity), s.slo.Total, s.slo.Slow, s.slo.Errors,
			s.slo.LatencyThresholdSeconds, s.slo.LatencyTarget)
		for _, w := range s.slo.Windows {
			fmt.Fprintf(&b, "  window %-8s latency burn %6.2fx   error burn %6.2fx\n",
				w.Window, w.LatencyBurnRate, w.ErrorBurnRate)
		}
	}

	// The observer's own runtime, beside the simulated JVMs it measures.
	if s.self != nil {
		rs := s.self.Runtime
		fmt.Fprintf(&b, "\nself: heap %s / goal %s   %.0f goroutines   %.0f GC cycles   pause p99 %.3gms\n",
			bytesHuman(rs.HeapObjectsBytes), bytesHuman(rs.HeapGoalBytes), rs.Goroutines, rs.GCCycles, rs.PauseP99*1e3)
	}

	// Occupancy over the poll history.
	if len(p.history) >= 2 {
		t0 := p.history[0].when
		var xs, queue, running []float64
		for _, h := range p.history {
			if !h.ok {
				continue
			}
			xs = append(xs, h.when.Sub(t0).Seconds())
			queue = append(queue, h.queued)
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
		b.WriteString("\nrecent traces:\n")
		for _, tr := range s.recent {
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
		fleetTop = flag.Bool("fleet", false, "watch the whole fleet via /fleet/state on any fleet node")
	)
	flag.Parse()

	p := newPoller(*addr, *history, *fleetTop)
	if *once {
		s := p.poll(time.Now())
		fmt.Print(p.render(s))
		if !s.ok {
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
