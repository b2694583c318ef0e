package labd

import (
	"time"

	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// NodeState is one daemon's observability snapshot in a machine-mergeable
// form: its metric set and per-window SLO counts rather than rendered
// text. The fleet aggregator (internal/fleet) pulls one per node from GET
// /v1/state and folds them — metric sets by name, SLO windows summed and
// re-derived, slowest traces unioned — never re-scraping; /fleet/nodes
// serves each one unfolded as that node's reading.
type NodeState struct {
	// Node is the daemon's fleet identity (Config.NodeID).
	Node          string  `json:"node,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports a daemon that stopped intake (Drain); its
	// /healthz answers 503 meanwhile.
	Draining bool `json:"draining,omitempty"`

	// The metric set ("counters", "gauges", "hists" in JSON), with a
	// fleet node's router and gossip counters.
	telemetry.MetricsState

	// SLO carries the burn-rate monitor's reading; nil when disabled.
	// obs.MergeStatus folds these across nodes.
	SLO *obs.Status `json:"slo,omitempty"`

	// Slowest lists the node's slowest retained traces (tail-latency
	// candidates for the fleet-wide slowest-K union).
	Slowest []obs.TraceSummary `json:"slowest,omitempty"`
}

// NodeState snapshots the daemon for fleet aggregation.
func (s *Server) NodeState() NodeState {
	st := NodeState{
		Node:          s.cfg.NodeID,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.drainFast.Load(),
		MetricsState:  s.metrics.State(),
	}
	if s.slo.Enabled() {
		slo := s.slo.Status()
		st.SLO = &slo
	}
	if store := s.tracer.Store(); store != nil {
		st.Slowest = store.Slowest()
		for i := range st.Slowest {
			st.Slowest[i].Node = s.cfg.NodeID
		}
	}
	return st
}
