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
// re-derived, slowest traces unioned — never re-scraping.
type NodeState struct {
	// Node is the daemon's fleet identity (Config.NodeID).
	Node          string  `json:"node,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`

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

// CacheHealth is the per-tier cache reading inside HealthStatus.
type CacheHealth struct {
	Entries     int   `json:"entries"`
	DiskEntries int   `json:"disk_entries,omitempty"`
	MemoryHits  int64 `json:"memory_hits"`
	DiskHits    int64 `json:"disk_hits,omitempty"`
	PeerHits    int64 `json:"peer_hits,omitempty"`
	PeerMisses  int64 `json:"peer_misses,omitempty"`
}

// HealthStatus is the GET /healthz body: liveness plus enough shape —
// node identity, queue pressure, per-tier cache traffic — for a fleet
// router to judge membership and for an operator's curl to tell which
// node answered and how loaded it is.
type HealthStatus struct {
	// Status is "ok" or "draining" (the latter served as 503 so load
	// balancers and fleet routers stop sending work).
	Status        string      `json:"status"`
	Node          string      `json:"node,omitempty"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	QueueDepth    int         `json:"queue_depth"`
	Running       int         `json:"running"`
	Cache         CacheHealth `json:"cache"`
}

// Health snapshots the daemon's health reading.
func (s *Server) Health() HealthStatus {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	state := "ok"
	if draining {
		state = "draining"
	}
	return HealthStatus{
		Status:        state,
		Node:          s.cfg.NodeID,
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    s.QueueDepth(),
		Running:       s.Running(),
		Cache: CacheHealth{
			Entries:     s.CacheLen(),
			DiskEntries: s.DiskCacheEntries(),
			MemoryHits:  s.metrics.Counter("labd.cache.hits.memory"),
			DiskHits:    s.metrics.Counter("labd.cache.hits.disk"),
			PeerHits:    s.metrics.Counter("labd.cache.hits.peer"),
			PeerMisses:  s.metrics.Counter("labd.cache.peer.misses"),
		},
	}
}
