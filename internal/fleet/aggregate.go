package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// FleetState is the fleet-wide rollup of per-node observability
// snapshots (GET /fleet/state). Every aggregate is exact, not
// approximate: the nodes' metric sets fold by name (counters and gauges
// sum; histograms merge bucket-exactly, nodes folded in sorted-ID order
// so two aggregators always produce identical bytes), SLO burn rates are
// recomputed from summed window counts, and the slowest-trace list is
// the union of per-node slowest sets with node labels intact.
type FleetState struct {
	// Nodes holds the per-node snapshots the aggregate was folded from,
	// sorted by node ID.
	Nodes []labd.NodeState `json:"nodes"`
	// Unreachable lists configured nodes that did not answer.
	Unreachable []string `json:"unreachable,omitempty"`

	telemetry.MetricsState

	SLO *obs.Status `json:"slo,omitempty"`

	Slowest []obs.TraceSummary `json:"slowest,omitempty"`
}

// MergeStates folds per-node snapshots into the fleet rollup. States
// are re-sorted by node ID first, so the result is independent of
// arrival order.
func MergeStates(states []labd.NodeState) FleetState {
	sorted := make([]labd.NodeState, len(states))
	copy(sorted, states)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Node < sorted[b].Node })

	out := FleetState{Nodes: sorted}
	metrics := make([]telemetry.MetricsState, len(sorted))
	var slos []obs.Status
	maxSlowest := 0
	for i, st := range sorted {
		metrics[i] = st.MetricsState
		if st.SLO != nil {
			slos = append(slos, *st.SLO)
		}
		out.Slowest = append(out.Slowest, st.Slowest...)
		if len(st.Slowest) > maxSlowest {
			maxSlowest = len(st.Slowest)
		}
	}
	out.MetricsState = telemetry.MergeMetrics(metrics...)
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
	}{int64(merged.Gauges["labd.traces.seen"]), int(merged.Gauges["labd.traces.retained"]),
		merged.Slowest, unreachable})
}

// handleFleetMetrics renders the merged metric set under the names a
// single daemon serves, so anything that reads a daemon's /metrics
// (cmd/gctop, a scrape config) reads the fleet at /fleet/metrics, plus
// the gauges only a fleet has.
func (rt *Router) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	states, _ := rt.gatherStates(r.Context())
	merged := MergeStates(states)

	var snap telemetry.PromSnapshot
	for name, v := range merged.Counters {
		snap.Counter(name, "Fleet-wide sum of the per-node counter.", v)
	}
	for name, v := range merged.Gauges {
		snap.Gauge(name, "Fleet-wide sum of the per-node gauge.", v)
	}
	for name, b := range merged.Hists {
		if h, err := hdrhist.Decode(b); err == nil {
			snap.Histogram(name, "Fleet-wide merge of the per-node histogram.", h)
		}
	}
	snap.Gauge("fleet.nodes", "Placed fleet nodes in the current view.",
		float64(rt.Ring().Len()))
	snap.Gauge("fleet.epoch", "Current membership epoch.", float64(rt.Epoch()))
	snap.Gauge("fleet.nodes.reachable", "Nodes that answered the state probe.",
		float64(len(merged.Nodes)))
	per := make([]telemetry.LabeledValue, 0, len(merged.Nodes))
	for _, st := range merged.Nodes {
		per = append(per, telemetry.LabeledValue{
			Labels: []telemetry.Label{{Name: "node", Value: st.Node}},
			Value:  st.Gauges["labd.queue.depth"],
		})
	}
	snap.LabeledGauge("fleet.node.queue.depth", "Per-node queue depth.", per)
	labd.WriteMetrics(w, r, &snap)
}

// NodeInfo is one row of /fleet/nodes: a member and its reading.
// State/Incarnation come from the gossip memberlist when one is
// attached ("alive"/"suspect"/"dead"/"left"); a router without one
// reports every node of its fixed view "alive". Reading is the node's
// /v1/state snapshot from the fan-out /fleet/state folds; nil when the
// node did not answer or is not placed.
type NodeInfo struct {
	ID          string          `json:"id"`
	URL         string          `json:"url"`
	Self        bool            `json:"self,omitempty"`
	State       string          `json:"state"`
	Incarnation uint64          `json:"incarnation,omitempty"`
	Reading     *labd.NodeState `json:"reading,omitempty"`
}

// handleFleetNodes serves membership (with gossip states when a
// gossiper is attached), each placed node's reading and the router's
// own placement counters.
func (rt *Router) handleFleetNodes(w http.ResponseWriter, r *http.Request) {
	states, _ := rt.gatherStates(r.Context())
	readings := make(map[string]*labd.NodeState, len(states))
	for i := range states {
		readings[states[i].Node] = &states[i]
	}
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
		ms := members[id]
		nodes = append(nodes, NodeInfo{
			ID:          id,
			URL:         ms.url,
			Self:        id == rt.cfg.Self,
			State:       ms.state,
			Incarnation: ms.inc,
			Reading:     readings[id],
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Self   string      `json:"self,omitempty"`
		Epoch  uint64      `json:"epoch"`
		Nodes  []NodeInfo  `json:"nodes"`
		Router RouterStats `json:"router"`
	}{rt.cfg.Self, v.epoch, nodes, rt.Stats()})
}
