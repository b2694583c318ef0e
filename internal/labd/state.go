package labd

import (
	"time"

	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// RecentTraces bounds NodeState.Recent. It is the number of recent
// traces gctop draws, and it keeps the reading small: the fleet fans
// /v1/state out to every node, and the whole trace ring would add tens
// of kilobytes to each answer.
const RecentTraces = 5

// NodeState is one daemon's reading (GET /v1/state) in a
// machine-mergeable form: its metric set and per-window SLO counts
// rather than rendered text. gctop draws a node's frame from it. The
// fleet aggregator (internal/fleet) pulls one per node and folds them
// (metric sets by name, SLO windows summed and re-derived, slowest
// traces unioned), never re-scraping, and /fleet/state serves each one
// unfolded as that node's row's reading.
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

	// Runtime is the daemon's own Go runtime, the vitals /metrics
	// renders as jvmgc_labd_go_*.
	Runtime obs.RuntimeSample `json:"runtime"`

	// SLO carries the burn-rate monitor's reading; nil when disabled.
	// obs.MergeStatus folds these across nodes.
	SLO *obs.Status `json:"slo,omitempty"`

	// Slowest lists the node's slowest retained traces (tail-latency
	// candidates for the fleet-wide slowest-K union).
	Slowest []obs.TraceSummary `json:"slowest,omitempty"`

	// Recent lists the newest retained traces, newest first, at most
	// RecentTraces of them.
	Recent []obs.TraceSummary `json:"recent,omitempty"`
}

// NodeState snapshots the daemon: its /v1/state reading.
func (s *Server) NodeState() NodeState {
	st := NodeState{
		Node:          s.cfg.NodeID,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Draining:      s.drainFast.Load(),
		MetricsState:  s.metrics.State(),
		Runtime:       obs.ReadRuntimeSample(),
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
		st.Recent = store.Recent(RecentTraces)
	}
	return st
}
