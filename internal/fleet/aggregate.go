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

// FleetState is the fleet's one reading (GET /fleet/state): one row per
// member with the node's own reading, and the rollup folded from those
// readings. Every aggregate is exact, not approximate: the nodes'
// metric sets fold by name (counters and gauges sum; histograms merge
// bucket-exactly, nodes folded in sorted-ID order so two aggregators
// always produce identical bytes), SLO burn rates are recomputed from
// summed window counts, and the slowest-trace list is the union of
// per-node slowest sets with node labels intact.
type FleetState struct {
	// Self is the serving node's ID; empty on a standalone router.
	Self string `json:"self,omitempty"`
	// Epoch is the serving node's membership epoch.
	Epoch uint64 `json:"epoch"`
	// Nodes holds one row per member, sorted by ID. A placed member
	// whose row has no reading did not answer.
	Nodes []NodeInfo `json:"nodes"`

	telemetry.MetricsState

	SLO *obs.Status `json:"slo,omitempty"`

	Slowest []obs.TraceSummary `json:"slowest,omitempty"`
}

// NodeInfo is one member row of /fleet/state. State and Incarnation
// come from the gossip memberlist when one is attached
// ("alive"/"suspect"/"dead"/"left"); a router without one reports every
// node of its fixed view "alive". Reading is the node's /v1/state
// snapshot from the fan-out the rollup folds; nil when the node did not
// answer or is not placed.
type NodeInfo struct {
	ID          string          `json:"id"`
	URL         string          `json:"url"`
	Self        bool            `json:"self,omitempty"`
	State       string          `json:"state"`
	Incarnation uint64          `json:"incarnation,omitempty"`
	Reading     *labd.NodeState `json:"reading,omitempty"`
}

// MergeStates folds per-node snapshots into the fleet rollup: the merged
// metric set, SLO and slowest traces, with no member rows. States are
// folded in node-ID order, so the result is independent of arrival
// order.
func MergeStates(states []labd.NodeState) FleetState {
	sorted := make([]labd.NodeState, len(states))
	copy(sorted, states)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Node < sorted[b].Node })

	var out FleetState
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

// gatherStates pulls /v1/state from every node placed in v (the local
// daemon directly) and returns the readings of those that answered. It
// only reads: liveness is gossip's to decide.
func (rt *Router) gatherStates(ctx context.Context, v *view) []labd.NodeState {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var states []labd.NodeState
	for id, url := range v.urls {
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
			if err != nil {
				return
			}
			if st.Node == "" {
				st.Node = id
			}
			mu.Lock()
			states = append(states, *st)
			mu.Unlock()
		}(id, url)
	}
	wg.Wait()
	return states
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

// fleetState reads every placed node once and returns the fleet's
// reading: the rollup of those readings and one row per member.
func (rt *Router) fleetState(ctx context.Context) FleetState {
	v := rt.view.Load()
	states := rt.gatherStates(ctx, v)
	fs := MergeStates(states)
	fs.Self, fs.Epoch = rt.cfg.Self, v.epoch
	fs.Nodes = rt.members(v, states)
	return fs
}

// members lists one row per member, sorted by ID: every node placed in
// v and, when a gossiper is attached, every member it knows, with its
// gossip state (a dead or left node showing up with its state is the
// dashboard's whole point). Each row carries the node's reading from
// states, if it answered.
func (rt *Router) members(v *view, states []labd.NodeState) []NodeInfo {
	rows := make(map[string]NodeInfo, len(v.urls))
	for id, url := range v.urls {
		rows[id] = NodeInfo{ID: id, URL: url, State: "alive"}
	}
	if rt.g != nil {
		for _, m := range rt.g.Memberlist().Members() {
			rows[m.ID] = NodeInfo{ID: m.ID, URL: m.URL, State: m.StateName, Incarnation: m.Incarnation}
		}
	}
	for i := range states {
		if n, ok := rows[states[i].Node]; ok {
			n.Reading = &states[i]
			rows[n.ID] = n
		}
	}
	out := make([]NodeInfo, 0, len(rows))
	for id, n := range rows {
		n.Self = id == rt.cfg.Self
		out = append(out, n)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// handleFleetState serves the fleet's reading.
func (rt *Router) handleFleetState(w http.ResponseWriter, r *http.Request) {
	labd.WriteJSON(w, http.StatusOK, rt.fleetState(r.Context()))
}

// handleFleetMetrics renders the fleet's reading for scrapers: the
// merged metric set under the names a single daemon serves, so a scrape
// config reads the fleet at /fleet/metrics as it reads a daemon's
// /metrics, plus the gauges only a fleet has.
func (rt *Router) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	fs := rt.fleetState(r.Context())

	var snap telemetry.PromSnapshot
	for name, v := range fs.Counters {
		snap.Counter(name, "Fleet-wide sum of the per-node counter.", v)
	}
	for name, v := range fs.Gauges {
		snap.Gauge(name, "Fleet-wide sum of the per-node gauge.", v)
	}
	for name, b := range fs.Hists {
		if h, err := hdrhist.Decode(b); err == nil {
			snap.Histogram(name, "Fleet-wide merge of the per-node histogram.", h)
		}
	}
	var per []telemetry.LabeledValue
	for _, n := range fs.Nodes {
		if n.Reading != nil {
			per = append(per, telemetry.LabeledValue{
				Labels: []telemetry.Label{{Name: "node", Value: n.ID}},
				Value:  n.Reading.Gauges["labd.queue.depth"],
			})
		}
	}
	snap.Gauge("fleet.nodes", "Placed fleet nodes in the current view.",
		float64(rt.Ring().Len()))
	snap.Gauge("fleet.epoch", "Current membership epoch.", float64(fs.Epoch))
	snap.Gauge("fleet.nodes.reachable", "Nodes that answered the state probe.",
		float64(len(per)))
	snap.LabeledGauge("fleet.node.queue.depth", "Per-node queue depth.", per)
	labd.WriteMetrics(w, r, &snap)
}
