package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// FleetState is the fleet-wide rollup of per-node observability
// snapshots (GET /fleet/state). Every aggregate is exact, not
// approximate: counters are sums, the latency histogram is the
// bucket-level merge of the per-node histograms (hdrhist.Merge is
// commutative and lossless, and nodes are folded in sorted-ID order so
// two aggregators always produce identical bytes), SLO burn rates are
// recomputed from summed window counts, and the slowest-trace list is
// the union of per-node slowest sets with node labels intact.
type FleetState struct {
	// Nodes holds the per-node snapshots the aggregate was folded from,
	// sorted by node ID.
	Nodes []labd.NodeState `json:"nodes"`
	// Unreachable lists configured nodes that did not answer.
	Unreachable []string `json:"unreachable,omitempty"`

	Counters map[string]int64 `json:"counters"`

	QueueDepth   int `json:"queue_depth"`
	Running      int `json:"running"`
	Workers      int `json:"workers"`
	CacheEntries int `json:"cache_entries"`
	DiskEntries  int `json:"disk_entries,omitempty"`

	LatencyHist []byte `json:"latency_hist,omitempty"`
	QueueHist   []byte `json:"queue_hist,omitempty"`

	SLO *obs.Status `json:"slo,omitempty"`

	Slowest        []obs.TraceSummary `json:"slowest,omitempty"`
	TracesSeen     int64              `json:"traces_seen,omitempty"`
	TracesRetained int                `json:"traces_retained,omitempty"`
}

// MergeStates folds per-node snapshots into the fleet rollup. States
// are re-sorted by node ID first, so the result is independent of
// arrival order.
func MergeStates(states []labd.NodeState) FleetState {
	sorted := make([]labd.NodeState, len(states))
	copy(sorted, states)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Node < sorted[b].Node })

	out := FleetState{Nodes: sorted, Counters: make(map[string]int64)}
	var latAcc, queueAcc *hdrhist.Hist
	var slos []obs.Status
	maxSlowest := 0
	for _, st := range sorted {
		for name, v := range st.Counters {
			out.Counters[name] += v
		}
		out.QueueDepth += st.QueueDepth
		out.Running += st.Running
		out.Workers += st.Workers
		out.CacheEntries += st.CacheEntries
		out.DiskEntries += st.DiskEntries
		latAcc = mergeHist(latAcc, st.LatencyHist)
		queueAcc = mergeHist(queueAcc, st.QueueHist)
		if st.SLO != nil {
			slos = append(slos, *st.SLO)
		}
		out.Slowest = append(out.Slowest, st.Slowest...)
		if len(st.Slowest) > maxSlowest {
			maxSlowest = len(st.Slowest)
		}
		out.TracesSeen += st.TracesSeen
		out.TracesRetained += st.TracesRetained
	}
	if latAcc != nil {
		out.LatencyHist, _ = latAcc.MarshalBinary()
	}
	if queueAcc != nil {
		out.QueueHist, _ = queueAcc.MarshalBinary()
	}
	if len(slos) > 0 {
		merged := obs.MergeStatus(slos...)
		out.SLO = &merged
	}
	// The fleet's slowest-K: union the per-node slowest sets and keep
	// the K globally slowest, K being the deepest per-node retention —
	// the exact set one daemon with all the traffic would have retained.
	sort.SliceStable(out.Slowest, func(a, b int) bool {
		return out.Slowest[a].DurationSeconds > out.Slowest[b].DurationSeconds
	})
	if len(out.Slowest) > maxSlowest {
		out.Slowest = out.Slowest[:maxSlowest]
	}
	return out
}

// mergeHist folds one node's serialized histogram into the accumulator.
// A decode or config mismatch drops that node's histogram rather than
// failing the rollup (mixed-version fleets mid-upgrade).
func mergeHist(acc *hdrhist.Hist, data []byte) *hdrhist.Hist {
	if len(data) == 0 {
		return acc
	}
	h, err := hdrhist.Decode(data)
	if err != nil {
		return acc
	}
	if acc == nil {
		return h
	}
	if acc.Merge(h) != nil {
		return acc
	}
	return acc
}

// gatherStates pulls /v1/state from every placed node (the local
// daemon directly), listing the ones that do not answer. It only reads:
// liveness is gossip's to decide.
func (rt *Router) gatherStates(ctx context.Context) (states []labd.NodeState, unreachable []string) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, url := range rt.view.Load().urls {
		if id == rt.cfg.Self && rt.local != nil {
			st := rt.local.NodeState()
			mu.Lock()
			states = append(states, st)
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(id, url string) {
			defer wg.Done()
			st, err := rt.fetchState(ctx, url)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				unreachable = append(unreachable, id)
				return
			}
			if st.Node == "" {
				st.Node = id
			}
			states = append(states, *st)
		}(id, url)
	}
	wg.Wait()
	sort.Strings(unreachable)
	return states, unreachable
}

func (rt *Router) fetchState(ctx context.Context, url string) (*labd.NodeState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/state", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New("fleet: state probe: " + resp.Status)
	}
	var st labd.NodeState
	if err := json.NewDecoder(io.LimitReader(resp.Body, 32<<20)).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// handleFleetState serves the merged rollup plus the per-node snapshots
// it was folded from.
func (rt *Router) handleFleetState(w http.ResponseWriter, r *http.Request) {
	states, unreachable := rt.gatherStates(r.Context())
	merged := MergeStates(states)
	merged.Unreachable = unreachable
	writeJSON(w, http.StatusOK, merged)
}

// handleFleetSLO serves the fleet-wide burn-rate reading: per-window
// counts summed across nodes, burn rates and severity re-derived with
// the same multiwindow rule a single node uses.
func (rt *Router) handleFleetSLO(w http.ResponseWriter, r *http.Request) {
	states, _ := rt.gatherStates(r.Context())
	var slos []obs.Status
	for _, st := range states {
		if st.SLO != nil {
			slos = append(slos, *st.SLO)
		}
	}
	if len(slos) == 0 {
		writeError(w, http.StatusNotFound, errors.New("fleet: SLO monitoring disabled on all nodes"))
		return
	}
	writeJSON(w, http.StatusOK, obs.MergeStatus(slos...))
}

// handleFleetTraces serves the fleet's slowest-trace union, each entry
// labeled with the node that retains it (resolve the full trace at that
// node's /debug/traces/{id}).
func (rt *Router) handleFleetTraces(w http.ResponseWriter, r *http.Request) {
	states, unreachable := rt.gatherStates(r.Context())
	merged := MergeStates(states)
	writeJSON(w, http.StatusOK, struct {
		Seen        int64              `json:"seen"`
		Retained    int                `json:"retained"`
		Slowest     []obs.TraceSummary `json:"slowest"`
		Unreachable []string           `json:"unreachable,omitempty"`
	}{merged.TracesSeen, merged.TracesRetained, merged.Slowest, unreachable})
}

// handleFleetMetrics renders the rollup in Prometheus text format under
// the same metric names a single daemon serves, so anything that reads
// a daemon's /metrics (cmd/gctop, a scrape config) reads the fleet by
// pointing at /fleet/metrics instead.
func (rt *Router) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	states, _ := rt.gatherStates(r.Context())
	merged := MergeStates(states)

	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	snap := telemetry.PromSnapshot{OpenMetrics: openMetrics}
	names := make([]string, 0, len(merged.Counters))
	for name := range merged.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap.Counter(name, "Fleet-wide sum of the per-node counter.", merged.Counters[name])
	}
	snap.Gauge("fleet.nodes", "Placed fleet nodes in the current view.",
		float64(rt.Ring().Len()))
	snap.Gauge("fleet.epoch", "Current membership epoch.", float64(rt.Epoch()))
	snap.Gauge("fleet.nodes.reachable", "Nodes that answered the state probe.",
		float64(len(merged.Nodes)))
	snap.Gauge("labd.queue.depth", "Jobs waiting for a worker, fleet-wide.",
		float64(merged.QueueDepth))
	snap.Gauge("labd.jobs.running", "Jobs executing right now, fleet-wide.",
		float64(merged.Running))
	snap.Gauge("labd.workers", "Total worker-pool size across nodes.", float64(merged.Workers))
	snap.Gauge("labd.cache.entries", "Results held in memory caches, fleet-wide.",
		float64(merged.CacheEntries))
	if merged.DiskEntries > 0 {
		snap.Gauge("labd.cache.disk.entries", "On-disk cache entries, fleet-wide.",
			float64(merged.DiskEntries))
	}
	snap.Gauge("labd.traces.seen", "Traces ever filed, fleet-wide.",
		float64(merged.TracesSeen))
	snap.Gauge("labd.traces.retained", "Traces retained across node stores.",
		float64(merged.TracesRetained))
	per := make([]telemetry.LabeledValue, 0, len(merged.Nodes))
	for _, st := range merged.Nodes {
		per = append(per, telemetry.LabeledValue{
			Labels: []telemetry.Label{{Name: "node", Value: st.Node}},
			Value:  float64(st.QueueDepth),
		})
	}
	snap.LabeledGauge("fleet.node.queue.depth", "Per-node queue depth.", per)
	if h, err := hdrhist.Decode(merged.LatencyHist); err == nil {
		snap.Histogram("labd_job_latency_hist_seconds",
			"End-to-end job latency distribution, merged across the fleet.", h)
	}
	if h, err := hdrhist.Decode(merged.QueueHist); err == nil {
		snap.Histogram("labd_queue_wait_seconds",
			"Queue wait distribution, merged across the fleet.", h)
	}

	if openMetrics {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	_ = snap.Write(w)
}

// NodeInfo is one row of /fleet/nodes: membership plus a live probe.
// State/Incarnation come from the gossip memberlist when one is
// attached ("alive"/"suspect"/"dead"/"left"); a router without one
// reports every node of its fixed view "alive" and leaves the probe
// (Alive, Health) to tell.
type NodeInfo struct {
	ID          string             `json:"id"`
	URL         string             `json:"url"`
	Self        bool               `json:"self,omitempty"`
	Alive       bool               `json:"alive"`
	State       string             `json:"state"`
	Incarnation uint64             `json:"incarnation,omitempty"`
	Health      *labd.HealthStatus `json:"health,omitempty"`
}

// handleFleetNodes probes every placed node and serves membership
// (with gossip states when a gossiper is attached), health and the
// router's own placement counters.
func (rt *Router) handleFleetNodes(w http.ResponseWriter, r *http.Request) {
	health := rt.Health(r.Context())
	v := rt.view.Load()
	type memberState struct {
		state string
		inc   uint64
		url   string
	}
	members := make(map[string]memberState)
	for id, url := range v.urls {
		members[id] = memberState{state: "alive", url: url}
	}
	if rt.g != nil {
		// Include non-placed registers too: a dead or left node showing
		// up with its state is the dashboard's whole point.
		for _, m := range rt.g.Memberlist().Members() {
			members[m.ID] = memberState{state: m.StateName, inc: m.Incarnation, url: m.URL}
		}
	}
	ids := make([]string, 0, len(members))
	for id := range members {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	nodes := make([]NodeInfo, 0, len(ids))
	for _, id := range ids {
		h := health[id]
		ms := members[id]
		nodes = append(nodes, NodeInfo{
			ID:          id,
			URL:         ms.url,
			Self:        id == rt.cfg.Self,
			Alive:       h != nil && h.Status == "ok",
			State:       ms.state,
			Incarnation: ms.inc,
			Health:      h,
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Self   string      `json:"self,omitempty"`
		Epoch  uint64      `json:"epoch"`
		Nodes  []NodeInfo  `json:"nodes"`
		Router RouterStats `json:"router"`
	}{rt.cfg.Self, v.epoch, nodes, rt.Stats()})
}
