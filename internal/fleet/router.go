package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/labd"
	"jvmgc/internal/telemetry"
)

// Fault-injection sites the router carries (internal/faultinject). All
// are inert unless Config.Chaos arms them.
const (
	// FaultNodeKill kills the forward's target node: Config.KillHook is
	// invoked with the target's ID (the chaos test closes that node's
	// listener and stops its gossiper), and the forward then fails for
	// real, exercising failover end to end: the request re-picks, and
	// gossip suspects the node.
	FaultNodeKill = "fleet/node.kill"
	// FaultRoutePartition fails a forward as if the network between this
	// router and the target dropped: the request is never sent, gossip
	// suspects the target, and the job re-routes.
	FaultRoutePartition = "fleet/route.partition"
	// FaultHandoffAbort drops one key's push during the graceful-leave
	// handoff. Correctness survives — the successor recomputes or
	// peer-fetches on demand — the handoff only pre-warms.
	FaultHandoffAbort = "fleet/handoff.abort"
)

// routedHeader marks a request already placed by a router. A node
// receiving it serves the job locally, whatever the ring says — the
// sender is authoritative for placement — which is what makes failover
// re-routes terminate instead of looping between two routers with
// different views of membership. It also marks the spec-key header
// (labd.HeaderSpecKey) trustworthy: the router computed the key for
// placement and carries it along, so the owning daemon never re-derives
// it.
const routedHeader = labd.HeaderRouted

// Config parameterizes a Router.
type Config struct {
	// Self is this node's ID — the Nodes entry whose jobs are served by
	// the local daemon instead of forwarded. Empty means a standalone
	// router fronting the fleet without a daemon of its own.
	Self string
	// Nodes maps node ID → base URL ("http://host:port") for the boot
	// membership, including Self (its URL is what peers use). With a
	// gossiper attached this is only the starting view; live membership
	// replaces it through SetMembership. Without one it is the fixed
	// view, and only the request that saw a node fail avoids it.
	Nodes map[string]string
	// Vnodes is the virtual-node count per node (<=0 = default 128).
	Vnodes int
	// LoadFactor is the bounded-load multiplier: a node may hold at most
	// ceil(LoadFactor · mean pending) routed jobs before placement
	// slides to the next arc. <=1 disables the bound (pure consistent
	// hashing). Default 1.25 — the classic "power of bounded loads"
	// setting: near-minimal remapping with a hard cap on hot-shard
	// pileup.
	LoadFactor float64
	// HTTPClient is the forwarding transport (default: a pooled
	// keep-alive client with a 2-minute timeout, matched to the daemon's
	// default job timeout).
	HTTPClient *http.Client
	// Chaos arms the router's fault sites; nil is a no-op.
	Chaos *faultinject.Injector
	// KillHook is invoked with the target node's ID when FaultNodeKill
	// fires; chaos tests use it to actually take the node down.
	KillHook func(node string)
	// AfterLeave runs (on its own goroutine) once a POST /v1/fleet/leave
	// has fully drained — the daemon wires process shutdown here.
	AfterLeave func()
}

// defaultForwardClient is the process-wide forwarding client shared by
// routers whose Config leaves HTTPClient nil.
var defaultForwardClient = &http.Client{
	Timeout: 2 * time.Minute,
	Transport: &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   30 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 128,
		IdleConnTimeout:     90 * time.Second,
	},
}

func (c Config) withDefaults() Config {
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.HTTPClient == nil {
		// All routers in a process share one connection pool: forwards
		// are peer-to-peer and bursty, so idle keep-alive connections to
		// each peer matter more than per-router isolation. Default pool
		// limits (2 idle conns per host) would close most connections on
		// release under concurrent forwarding.
		c.HTTPClient = defaultForwardClient
	}
	return c
}

// view is one immutable membership snapshot: the placement ring, the
// node URLs it routes to, the epoch that names it, and which of its
// nodes gossip suspects. Routers never mutate a view — a membership or
// liveness change builds a new one and swaps the pointer, so every
// in-flight request keeps the ring it started with while new requests
// see the new one, with no lock on the hot path.
type view struct {
	epoch uint64
	ring  *Ring
	urls  map[string]string
	// suspect is a bitmask over ring.nodes: suspects keep their arcs,
	// but no request is routed to them.
	suspect uint64
}

// bit returns id's bit in masks over v.ring.nodes (0 when not placed).
func (v *view) bit(id string) uint64 {
	nodes := v.ring.nodes
	if i := sort.SearchStrings(nodes, id); i < len(nodes) && nodes[i] == id {
		return 1 << uint(i)
	}
	return 0
}

// Router places jobs on their ring owners and serves the fleet rollup.
// It implements labd.PeerFetcher, so the local daemon's cache gains the
// peer tier when wired via labd.Config.Peers.
type Router struct {
	cfg  Config
	view atomic.Pointer[view]

	// g is the gossiper, the fleet's only failure detector (nil = a
	// fixed view with per-request failover). Attach before Handler();
	// the gossip endpoints mount under /v1/gossip/.
	g *gossip.Gossiper

	// local is the co-resident daemon (nil for a standalone router);
	// localH its handler, served on the self fast path so local jobs
	// never cross a socket.
	local  *labd.Server
	localH http.Handler

	mu      sync.Mutex
	pending map[string]int // routed jobs in flight per node (bounded load)

	leaveOnce sync.Once
	leaveErr  error

	// metrics is the router's own set until SetLocal adopts the daemon's;
	// the handles are its fleet.router.<RouterStats JSON name> counters.
	metrics    *telemetry.Metrics
	forwards   *telemetry.CounterHandle // jobs forwarded to a peer
	localJobs  *telemetry.CounterHandle // jobs placed on the local daemon
	reroutes   *telemetry.CounterHandle // placements retried after a node failure
	epochSwaps *telemetry.CounterHandle // membership views swapped in
	kills      *telemetry.CounterHandle // FaultNodeKill firings
	partitions *telemetry.CounterHandle // FaultRoutePartition firings
	peerHits   *telemetry.CounterHandle // peer cache fetches that returned bytes
	peerProbes *telemetry.CounterHandle // peer cache fetch attempts
	peerSkips  *telemetry.CounterHandle // fetches the closed probe window answered

	// emptyProbes counts the peer probes in a row that found nothing;
	// the probe window is open while it is under probeWindow (see Fetch).
	emptyProbes atomic.Int32

	replicaHits    *telemetry.CounterHandle // hits on keys owned elsewhere, served from local memory
	replicasKept   *telemetry.CounterHandle // relayed owner hits verified and kept
	replicaRejects *telemetry.CounterHandle // relayed owner hits that failed verification
}

// New builds a router over the given boot membership.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: no nodes configured")
	}
	if cfg.Self != "" {
		if _, ok := cfg.Nodes[cfg.Self]; !ok {
			return nil, fmt.Errorf("fleet: self %q not in node set", cfg.Self)
		}
	}
	v, err := buildView(0, cfg.Nodes, nil, cfg.Vnodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{cfg: cfg, pending: make(map[string]int)}
	rt.view.Store(v)
	rt.useMetrics(telemetry.NewMetrics())
	return rt, nil
}

// useMetrics makes m the router's set, listing its counters at zero so
// every fleet process exports them from boot.
func (rt *Router) useMetrics(m *telemetry.Metrics) {
	rt.metrics = m
	for _, c := range []struct {
		name string
		h    **telemetry.CounterHandle
	}{
		{"forwards", &rt.forwards}, {"local_jobs", &rt.localJobs}, {"reroutes", &rt.reroutes},
		{"epoch_swaps", &rt.epochSwaps}, {"injected_kills", &rt.kills},
		{"injected_partitions", &rt.partitions}, {"peer_probes", &rt.peerProbes},
		{"peer_hits", &rt.peerHits}, {"peer_skips", &rt.peerSkips}, {"replica_hits", &rt.replicaHits},
		{"replicas_kept", &rt.replicasKept}, {"replica_rejects", &rt.replicaRejects},
	} {
		*c.h = m.CounterHandle("fleet.router." + c.name)
		(*c.h).Add(0)
	}
}

// buildView constructs an immutable view from a membership set and its
// suspects.
func buildView(epoch uint64, urls map[string]string, suspects []string, vnodes int) (*view, error) {
	ids := make([]string, 0, len(urls))
	own := make(map[string]string, len(urls))
	for id, u := range urls {
		ids = append(ids, id)
		own[id] = u
	}
	ring := NewRing(ids, vnodes)
	if err := ring.Validate(); err != nil {
		return nil, err
	}
	v := &view{epoch: epoch, ring: ring, urls: own}
	for _, id := range suspects {
		v.suspect |= v.bit(id)
	}
	return v, nil
}

// SetLocal attaches the co-resident daemon and adopts its metric set.
// Separate from New because the daemon and router reference each other
// (the daemon's peer cache tier is the router): build the router, pass
// it as labd.Config.Peers, then attach the daemon here, before serving.
func (rt *Router) SetLocal(s *labd.Server) {
	rt.local = s
	rt.localH = s.Handler()
	rt.useMetrics(s.Metrics())
}

// AttachGossip wires the gossiper. The gossiper should be constructed
// with OnUpdate: rt.SetMembership so placement and routing follow
// membership; attach before Handler() and before the gossiper starts,
// so /v1/gossip/* is mounted and every refutation of a suspicion about
// this node reopens the probe window (see Fetch). The router reports
// failed connections to it (Gossiper.Suspect) and closes it in Close.
func (rt *Router) AttachGossip(g *gossip.Gossiper) {
	rt.g = g
	g.OnRefute(rt.openProbeWindow)
}

// Gossip returns the attached gossiper (nil without one).
func (rt *Router) Gossip() *gossip.Gossiper { return rt.g }

// Metrics returns the router's metric set, which gossip counts into too:
// the local daemon's on a fleet node, its own on a standalone router.
func (rt *Router) Metrics() *telemetry.Metrics { return rt.metrics }

// Ring exposes the current placement ring (for tests and the fleet
// dashboard). The pointer is a snapshot: a concurrent membership change
// swaps the router's view but never mutates a ring already handed out.
func (rt *Router) Ring() *Ring { return rt.view.Load().ring }

// Epoch returns the current membership epoch (0 until gossip first
// reports a change).
func (rt *Router) Epoch() uint64 { return rt.view.Load().epoch }

// SetMembership atomically replaces the view — gossip's OnUpdate
// callback: the placement set, its epoch, and the suspects no request
// is routed to. In-flight requests keep the old view; requests that
// start after the swap see the new one. Pending-load state for departed
// nodes is pruned so a node that rejoins later starts clean, and the
// probe window opens: placement moved, so a peer may hold a result
// this node now owns.
func (rt *Router) SetMembership(epoch uint64, urls map[string]string, suspects []string) {
	v, err := buildView(epoch, urls, suspects, rt.cfg.Vnodes)
	if err != nil {
		// An invalid membership (fleet grew past the ring's node bound)
		// cannot be placed; keep routing on the last good view.
		return
	}
	rt.view.Store(v)
	rt.epochSwaps.Add(1)
	rt.openProbeWindow()
	rt.mu.Lock()
	for id := range rt.pending {
		if _, ok := v.urls[id]; !ok {
			delete(rt.pending, id)
		}
	}
	rt.mu.Unlock()
}

// Close stops the attached gossiper, if any. The router itself runs no
// background work.
func (rt *Router) Close() {
	if rt.g != nil {
		rt.g.Close()
	}
}

func (rt *Router) acquire(node string, n int) {
	rt.mu.Lock()
	rt.pending[node] += n
	rt.mu.Unlock()
}

func (rt *Router) release(node string, n int) {
	rt.mu.Lock()
	if rt.pending[node] -= n; rt.pending[node] <= 0 {
		delete(rt.pending, node)
	}
	rt.mu.Unlock()
}

// pickHash places a finalized key hash on v: the first routable
// candidate in ring order whose pending load is under the bounded-load
// cap, falling back to the first routable candidate when every node is
// at the bound. A candidate is routable unless gossip suspects it or
// exclude — a bitmask over v.ring.nodes naming the nodes this request
// already failed on — holds it. Returns "" when no node is routable.
// Allocation-free (benchmarked): the walk is inlined with a bitmask
// visited set rather than using Ring.Walk, whose closure argument would
// allocate per placement. The submit path hashes its stack-buffer key
// once and re-picks on the same hash and view across failover attempts.
func (rt *Router) pickHash(v *view, h uint64, exclude uint64) string {
	r := v.ring
	if len(r.points) == 0 {
		return ""
	}
	skip := exclude | v.suspect
	start := r.startHash(h)
	rt.mu.Lock()
	defer rt.mu.Unlock()

	alive, total := 0, 0
	for i, n := range r.nodes {
		if skip&(1<<uint(i)) == 0 {
			alive++
			total += rt.pending[n]
		}
	}
	if alive == 0 {
		return ""
	}
	bound := math.MaxInt
	if rt.cfg.LoadFactor > 1 {
		bound = int(math.Ceil(rt.cfg.LoadFactor * float64(total+1) / float64(alive)))
		if bound < 1 {
			bound = 1
		}
	}

	var visited uint64
	offered := 0
	fallback := ""
	for i := 0; i < len(r.points) && offered < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		bit := uint64(1) << uint(p.node)
		if visited&bit != 0 {
			continue
		}
		visited |= bit
		offered++
		if skip&bit != 0 {
			continue
		}
		n := r.nodes[p.node]
		if fallback == "" {
			fallback = n
		}
		if rt.pending[n] < bound {
			return n
		}
	}
	return fallback
}

// injectTransport runs the router's chaos sites for one forward to
// node. A node-kill invokes the hook (which takes the node down for
// real) and lets the forward fail naturally; a partition fails the
// forward before it is sent.
func (rt *Router) injectTransport(node string) error {
	if rt.cfg.Chaos.Fire(FaultNodeKill) {
		rt.kills.Add(1)
		if rt.cfg.KillHook != nil {
			rt.cfg.KillHook(node)
		}
	}
	if err := rt.cfg.Chaos.Error(FaultRoutePartition); err != nil {
		rt.partitions.Add(1)
		return err
	}
	return nil
}

// maxPeerProbes bounds how many peers a cache fetch asks. The key's
// previous owner is almost always within the first ring successors
// (membership changes slide ownership one arc over), so probing deeper
// buys little and costs a round trip per miss.
const maxPeerProbes = 2

// probeWindow is K: after K peer probes in a row that find nothing, the
// probe window closes and Fetch sends no request until it reopens. A
// peer holds a result this node owns only after placement moved, so
// the window opens at boot, on every view swap (SetMembership) and when
// this node refutes a suspicion about itself (peers that routed around
// it may have computed its keys), and a probe that hits keeps it open.
const probeWindow = 8

// openProbeWindow opens the probe window for another probeWindow empty
// probes.
func (rt *Router) openProbeWindow() { rt.emptyProbes.Store(0) }

// Fetch implements labd.PeerFetcher: ask the key's ring successors
// (skipping self and suspects) for cached result bytes, verifying the
// SHA-256 the peer advertises before trusting bytes that crossed the
// network. A false return sends the local daemon to recompute — peer
// fetching is an optimization, never a correctness dependency. While
// the probe window is closed, Fetch answers at once, sends nothing and
// counts a peer skip; its third result reports whether a peer was
// asked.
func (rt *Router) Fetch(ctx context.Context, key string) ([]byte, bool, bool) {
	if rt.emptyProbes.Load() >= probeWindow {
		rt.peerSkips.Add(1)
		return nil, false, false
	}
	v := rt.view.Load()
	r := v.ring
	if len(r.points) == 0 {
		return nil, false, false
	}
	start := r.start(key)
	var visited uint64
	offered, probes := 0, 0
	for i := 0; i < len(r.points) && offered < len(r.nodes) && probes < maxPeerProbes; i++ {
		p := r.points[(start+i)%len(r.points)]
		bit := uint64(1) << uint(p.node)
		if visited&bit != 0 {
			continue
		}
		visited |= bit
		offered++
		n := r.nodes[p.node]
		if n == rt.cfg.Self || v.suspect&bit != 0 {
			continue
		}
		probes++
		rt.peerProbes.Add(1)
		if b, ok := rt.fetchFrom(ctx, v.urls[n], n, key); ok {
			rt.peerHits.Add(1)
			rt.openProbeWindow()
			return b, true, true
		}
		rt.emptyProbes.Add(1)
	}
	return nil, false, probes > 0
}

// connectionRefused classifies a transport error for suspicion: true
// for connection-level failures (refused, reset, DNS — the node or its
// socket is gone), false for timeouts — a slow peer is not a dead peer,
// and conflating the two is how one overloaded cache probe used to
// quarantine a healthy node — and for a caller that gave up, which says
// nothing about the node it was waiting on.
func connectionRefused(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// suspect reports a connection-level failure to reach node to gossip,
// which then stops every request on this router from routing to the
// node until a probe confirms it or it refutes. Without a gossiper
// there is no failure memory; only the failing request avoids the node.
func (rt *Router) suspect(node string, err error) {
	if rt.g != nil && connectionRefused(err) {
		rt.g.Suspect(node)
	}
}

// maxDrain bounds how much of an unwanted response body drainClose
// reads. The bodies it meets are short JSON errors; a longer one is
// closed with its connection.
const maxDrain = 64 << 10

// drainClose reads what is left of a response body, up to maxDrain
// bytes, and closes it. net/http returns a connection to its keep-alive
// pool only once the body on it has been read to EOF: a body closed
// unread closes its connection, and the next request to that peer dials
// a new one.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrain))
	_ = body.Close()
}

// fetchFrom asks one peer for one key (GET /v1/cache/{key}). Only a
// connection-level failure suspects the peer: an HTTP error, a slow or
// broken body, or a digest mismatch is a failed *fetch*, not a dead
// *node* — the probe itself proved something is listening.
func (rt *Router) fetchFrom(ctx context.Context, url, node, key string) ([]byte, bool) {
	if err := rt.injectTransport(node); err != nil {
		rt.suspect(node, err)
		return nil, false
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := rt.cfg.HTTPClient.Do(req)
	if err != nil {
		rt.suspect(node, err)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength > labd.MaxResultBytes {
		// A clean miss (404) — or any HTTP-level rejection — proves the
		// node alive; routing keeps it, and the next probe reuses the
		// connection. A result over the bound every node keeps loses
		// the same way, its connection closed unread.
		drainClose(resp.Body)
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, labd.MaxResultBytes+1))
	resp.Body.Close()
	if err != nil || len(body) > labd.MaxResultBytes {
		// Mid-body failure or an oversized body: the connection answered,
		// so the node stays routable; this fetch just loses.
		return nil, false
	}
	if labd.Digest(body) != resp.Header.Get("X-Labd-Sha256") {
		// Corrupt or truncated transfer; recompute rather than trust it.
		return nil, false
	}
	return body, true
}

// Handler serves the fleet surface: job submission (routed), gossip
// endpoints (when a gossiper is attached), membership operations, the
// fleet's reading (/fleet/state, and /fleet/metrics for scrapers), and
// — when a local daemon is attached — everything else (job status,
// results, metrics, liveness) from the local daemon unchanged. A
// standalone router serves its own metric set at /metrics. Call after
// SetLocal and AttachGossip.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", rt.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/cache/keys", rt.handleCacheKeys)
	mux.HandleFunc("POST /v1/fleet/leave", rt.handleLeave)
	mux.HandleFunc("GET /fleet/state", rt.handleFleetState)
	mux.HandleFunc("GET /fleet/metrics", rt.handleFleetMetrics)
	if rt.g != nil {
		mux.Handle("POST /v1/gossip/", rt.g.Handler())
	}
	if rt.local == nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			var snap telemetry.PromSnapshot
			rt.metrics.AddTo(&snap)
			labd.WriteMetrics(w, r, &snap)
		})
	}
	mux.HandleFunc("/", rt.handleFallthrough)
	return mux
}

func (rt *Router) handleFallthrough(w http.ResponseWriter, r *http.Request) {
	if rt.localH != nil {
		rt.localH.ServeHTTP(w, r)
		return
	}
	if r.URL.Path == "/healthz" && r.Method == http.MethodGet {
		labd.WriteJSON(w, http.StatusOK, struct {
			Status string `json:"status"`
			Role   string `json:"role"`
		}{"ok", "router"})
		return
	}
	labd.WriteError(w, http.StatusNotFound,
		errors.New("fleet: standalone router: only /v1/jobs, /v1/jobs/batch, /metrics and /fleet/* are served"))
}

// handleCacheKeys lists the local daemon's cached keys — all of them,
// or with ?arc=<nodeID> only the keys that node would own in a ring
// extended with it. A joiner warming up asks each member
// /v1/cache/keys?arc=<joiner> and receives exactly its future arc,
// computed here, next to the data, instead of shipping every key list
// across the network to filter at the joiner.
func (rt *Router) handleCacheKeys(w http.ResponseWriter, r *http.Request) {
	if rt.local == nil {
		labd.WriteJSON(w, http.StatusOK, struct {
			Keys []string `json:"keys"`
		}{[]string{}})
		return
	}
	keys := rt.local.CacheKeys()
	if arc := r.URL.Query().Get("arc"); arc != "" {
		v := rt.view.Load()
		ids := make([]string, 0, len(v.urls)+1)
		seen := false
		for id := range v.urls {
			if id == arc {
				seen = true
			}
			ids = append(ids, id)
		}
		if !seen {
			ids = append(ids, arc)
		}
		candidate := NewRing(ids, rt.cfg.Vnodes)
		filtered := keys[:0]
		for _, k := range keys {
			if candidate.Lookup(k) == arc {
				filtered = append(filtered, k)
			}
		}
		keys = filtered
	}
	labd.WriteJSON(w, http.StatusOK, struct {
		Keys []string `json:"keys"`
	}{keys})
}

// JoinAndWarm joins a running fleet through the seed URLs and warms this
// node's future arc before taking placement: fetch the membership
// snapshot, learn the ring, pull the arc's cached keys from their
// current owners (SHA-verified), and only then announce. The fleet
// routes to this node only after the announce, so a join never exposes
// a cold cache to traffic it wasn't serving before.
func (rt *Router) JoinAndWarm(ctx context.Context, seeds []string) error {
	if rt.g == nil {
		return errors.New("fleet: JoinAndWarm requires an attached gossiper")
	}
	if err := rt.g.Join(ctx, seeds); err != nil {
		return fmt.Errorf("fleet: join: %w", err)
	}
	// The join snapshot fired SetMembership (self excluded — not yet
	// announced). Everything this node would own in the grown ring is
	// currently owned by these members; pull it over.
	v := rt.view.Load()
	ids := make([]string, 0, len(v.urls))
	for id := range v.urls {
		if id != rt.cfg.Self {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	warmed := 0
	if rt.local != nil {
		for _, id := range ids {
			keys, err := rt.fetchArcKeys(ctx, v.urls[id], rt.cfg.Self)
			if err != nil {
				continue // warm-up is best-effort; the peer tier catches misses
			}
			for _, key := range keys {
				if _, held := rt.local.CachePeek(key); held {
					continue // pulled from an earlier member, or on disk
				}
				if b, ok := rt.fetchFrom(ctx, v.urls[id], id, key); ok {
					rt.local.WarmCache(key, b)
					warmed++
				}
			}
		}
	}
	rt.metrics.Add("fleet.gossip.warmup.keys", int64(warmed))
	rt.g.Announce(ctx)
	return nil
}

// fetchArcKeys asks one member for the keys this node's arc would own.
func (rt *Router) fetchArcKeys(ctx context.Context, url, arc string) ([]string, error) {
	var keys []string
	err := gossip.Retry(ctx, 3, 50*time.Millisecond, time.Second, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			url+"/v1/cache/keys?arc="+arc, nil)
		if err != nil {
			return err
		}
		resp, err := rt.cfg.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		defer drainClose(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fleet: cache keys: status %d", resp.StatusCode)
		}
		var body struct {
			Keys []string `json:"keys"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&body); err != nil {
			return err
		}
		keys = body.Keys
		return nil
	})
	return keys, err
}

// Leave departs the fleet gracefully: broadcast the intent (the fleet
// re-rings without this node), hand the local cache's keys to their new
// owners, then drain in-flight jobs. Request flow during the sequence
// never fails client-visibly — until the broadcast lands peers still
// route here and are served; after it they route around; the handoff
// pre-warms the successors so the arc's hit rate survives the exit; and
// the drain finishes everything already accepted. Idempotent: a second
// Leave waits for the first.
func (rt *Router) Leave(ctx context.Context) error {
	rt.leaveOnce.Do(func() { rt.leaveErr = rt.doLeave(ctx) })
	return rt.leaveErr
}

func (rt *Router) doLeave(ctx context.Context) error {
	if rt.g != nil {
		rt.g.Leave(ctx)
	}
	// Handoff: push every locally cached key to its owner in the
	// post-leave ring; replicas stay behind, as their owners hold them.
	// Best-effort per key (the chaos site models a push dying
	// mid-handoff): a dropped key costs the successor one recompute,
	// never correctness.
	if rt.local != nil {
		v := rt.view.Load()
		if v.ring.Len() > 0 {
			handed := 0
			for _, key := range rt.local.CacheKeys() {
				owner := v.ring.Lookup(key)
				if owner == "" || owner == rt.cfg.Self {
					continue
				}
				if rt.cfg.Chaos.Fire(FaultHandoffAbort) {
					rt.metrics.Add("fleet.gossip.handoff.aborts", 1)
					continue
				}
				if rt.pushKey(ctx, v.urls[owner], key) == nil {
					handed++
				}
			}
			rt.metrics.Add("fleet.gossip.handoff.keys", int64(handed))
		}
		if err := rt.local.Drain(ctx); err != nil {
			return fmt.Errorf("fleet: leave: drain: %w", err)
		}
	}
	return nil
}

// pushKey PUTs one cached result to a successor, digest attached.
func (rt *Router) pushKey(ctx context.Context, url, key string) error {
	body, ok := rt.local.CachePeek(key)
	if !ok {
		return errors.New("fleet: key evicted mid-handoff")
	}
	digest := labd.Digest(body)
	return gossip.Retry(ctx, 3, 50*time.Millisecond, time.Second, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			url+"/v1/cache/"+key, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Labd-Sha256", digest)
		resp, err := rt.cfg.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		drainClose(resp.Body)
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			return fmt.Errorf("fleet: handoff put: status %d", resp.StatusCode)
		}
		return nil
	})
}

// handleLeave serves POST /v1/fleet/leave: run the graceful departure
// synchronously and confirm once drained, so the caller knows the node
// is safe to stop. AfterLeave (process shutdown) runs after the
// response is on the wire.
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	if err := rt.Leave(r.Context()); err != nil {
		labd.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	labd.WriteJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
		Node   string `json:"node,omitempty"`
		Epoch  uint64 `json:"epoch"`
	}{"left", rt.cfg.Self, rt.Epoch()})
	if rt.cfg.AfterLeave != nil {
		go rt.cfg.AfterLeave()
	}
}

// specHash derives a spec's content address into keyBuf and returns the
// key's ring hash, allocation-free: the key stays a stack buffer until
// a header or a local submission needs it as a string. The submit path
// and batch placement both key through it, and BenchmarkRouterForward
// gates it, with pickHash, at 0 allocs/op.
func specHash(spec labd.JobSpec, keyBuf *[64]byte) (uint64, error) {
	if err := labd.SpecKeyInto(spec, keyBuf); err != nil {
		return 0, err
	}
	return finalize(hashBytes(keyBuf[:])), nil
}

// decode reads a submission body: its request, spec key and the key's
// ring hash. A node decodes through its daemon's memo
// (labd.Server.DecodeKeyed), so a body it has seen before costs no
// decoding and no SHA-256; a standalone router decodes every body. key
// is "" only for an invalid spec on a node, which its daemon rejects; a
// standalone router returns the spec's error as err.
func (rt *Router) decode(body []byte) (labd.SubmitRequest, string, uint64, error) {
	if rt.local != nil {
		req, key, err := rt.local.DecodeKeyed(body)
		return req, key, finalize(hashString(key)), err
	}
	req, err := labd.DecodeSubmit(body)
	if err != nil {
		return req, "", 0, err
	}
	var keyBuf [64]byte
	h, err := specHash(req.Job, &keyBuf)
	if err != nil {
		return req, "", 0, err
	}
	return req, string(keyBuf[:]), h, nil
}

// serveRouted hands a request a peer routed here to the local daemon's
// handler unread, and reports whether it did (see routedHeader).
func (rt *Router) serveRouted(w http.ResponseWriter, r *http.Request) bool {
	if r.Header.Get(routedHeader) == "" || rt.localH == nil {
		return false
	}
	rt.localJobs.Add(1)
	rt.localH.ServeHTTP(w, r)
	return true
}

// handleSubmit routes one job to its owner: local fast path when the
// owner is this node, forward with failover otherwise. A request
// already routed by a peer is always served locally (see routedHeader).
// A synchronous hit on a key another node owns is answered from this
// node's memory when it holds a replica; forwarded owner hits become
// replicas once their digest checks out (see forward).
//
// Each node decodes a body at most once, and a repeated body not at
// all. A request routed here by a peer goes to the local daemon's
// handler unread. Otherwise this node decodes it and derives the spec
// key once (decode), or finds both in its daemon's memo. A job it owns
// goes to the local daemon decoded, with the key
// (labd.Server.ServeSubmit), so the daemon's zero-allocation fast path
// answers a cache hit without re-deriving it. A forward carries the key
// to the owner on labd.HeaderSpecKey, and the owner does the same on
// its side of the wire.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if rt.serveRouted(w, r) {
		return
	}
	bp, err := labd.ReadPooledBody(w, r, labd.MaxSubmitBody)
	if err != nil {
		labd.WriteError(w, http.StatusBadRequest, err)
		return
	}
	defer labd.ReleaseBody(bp)
	body := *bp
	req, key, keyHash, err := rt.decode(body)
	if err != nil {
		labd.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if key == "" {
		// Invalid spec: the local daemon produces the canonical 400.
		rt.localJobs.Add(1)
		rt.local.ServeSubmit(w, r, req, "")
		return
	}
	// Results are content-addressed, so any node's copy of a key's bytes
	// is the owner's answer: a synchronous submission this node would
	// forward is first looked up in its own memory. Replicas are served
	// and kept only while the local daemon's fast path is open (untraced,
	// not draining).
	replica := !req.Async && rt.local != nil && rt.local.FastPathOpen()

	// Failover is per request: a node the forward failed on is excluded
	// from this request's later picks, on the view the request started
	// with; whether other requests avoid it is gossip's call.
	v := rt.view.Load()
	var failed uint64
	for attempt := 0; attempt < v.ring.Len(); attempt++ {
		if r.Context().Err() != nil {
			return // the client is gone; no one is waiting for an answer
		}
		owner := rt.pickHash(v, keyHash, failed)
		if owner == "" {
			break
		}
		if attempt > 0 {
			rt.reroutes.Add(1)
		}
		if owner == rt.cfg.Self {
			rt.localJobs.Add(1)
			rt.local.ServeSubmit(w, r, req, key)
			return
		}
		if replica {
			if b, ok := rt.local.TryCacheHitKey(key); ok {
				rt.replicaHits.Add(1)
				rt.local.WriteCacheHit(w, key, b)
				return
			}
		}
		if rt.forward(w, r, v.urls[owner], owner, body, key, replica) {
			return
		}
		// The next pick slides to the key's next arc.
		failed |= v.bit(owner)
	}
	w.Header().Set("Retry-After", "1")
	labd.WriteError(w, http.StatusServiceUnavailable, errors.New("fleet: no nodes available"))
}

// relayBufs recycles the buffers forward copies response bodies
// through. Once the relay declares a Content-Length, net/http hands a
// plain io.Copy to the connection's ReadFrom, which allocates a fresh
// 32 KB buffer per response.
var relayBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// writerOnly hides a ResponseWriter's ReadFrom, so io.CopyBuffer copies
// through the buffer it is given.
type writerOnly struct{ io.Writer }

// forward proxies one submission to a peer node at url, carrying the
// already-computed spec key so the owner's daemon skips re-deriving it.
// False reports a transport-level failure (the job should re-route);
// true means a response — any response — was relayed to the client.
// With replica set, an owner's cache hit is relayed in full and then
// kept as a replica by the local daemon once its bytes match the
// SHA-256 the owner attached. A hit is kept only within
// labd.MaxResultBytes, the bound a daemon puts on a handoff PUT; larger
// bodies are relayed but not kept.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, url, node string, body []byte, key string, replica bool) bool {
	rt.acquire(node, 1)
	defer rt.release(node, 1)
	if err := rt.injectTransport(node); err != nil {
		rt.suspect(node, err)
		return false
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		labd.WriteError(w, http.StatusInternalServerError, err)
		return true
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(routedHeader, "1")
	req.Header.Set(labd.HeaderSpecKey, key)
	if replica {
		req.Header.Set(labd.HeaderReplica, "1")
	}
	if tp := r.Header.Get("traceparent"); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := rt.cfg.HTTPClient.Do(req)
	if err != nil {
		rt.suspect(node, err)
		return false
	}
	defer resp.Body.Close()
	rt.forwards.Add(1)
	for _, h := range []string{"Content-Type", "Retry-After", "Location",
		"X-Labd-Job", "X-Labd-Key", "X-Labd-Cache", "X-Labd-Trace", "X-Labd-Node"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	// Declare the owner's length: without it a body cut mid-relay would
	// reach the client as a complete, shorter response.
	if resp.ContentLength >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	digest := ""
	if replica && resp.StatusCode == http.StatusOK && resp.Header.Get("X-Labd-Cache") == "hit" &&
		resp.ContentLength >= 0 && resp.ContentLength <= labd.MaxResultBytes {
		digest = resp.Header.Get("X-Labd-Sha256")
	}
	if digest == "" {
		bp := relayBufs.Get().(*[]byte)
		_, _ = io.CopyBuffer(writerOnly{w}, resp.Body, *bp)
		relayBufs.Put(bp)
		return true
	}
	// The client has the bytes before they are hashed and kept.
	b := make([]byte, resp.ContentLength)
	n, err := io.ReadFull(resp.Body, b)
	_, _ = w.Write(b[:n])
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	switch {
	case err != nil || labd.Digest(b) != digest:
		rt.replicaRejects.Add(1)
	case rt.local.KeepReplica(key, b):
		rt.replicasKept.Add(1)
	}
	return true
}

// RouterStats snapshots the router's own counters. Each counter is
// fleet.router.<JSON name> in the router's metric set.
type RouterStats struct {
	Forwards   int64  `json:"forwards"`
	LocalJobs  int64  `json:"local_jobs"`
	Reroutes   int64  `json:"reroutes"`
	Epoch      uint64 `json:"epoch"`
	EpochSwaps int64  `json:"epoch_swaps"`
	Kills      int64  `json:"injected_kills"`
	Partitions int64  `json:"injected_partitions"`
	PeerProbes int64  `json:"peer_probes"`
	PeerHits   int64  `json:"peer_hits"`
	// PeerSkips counts the fetches answered without a probe because the
	// probe window was closed (see Fetch).
	PeerSkips int64 `json:"peer_skips"`
	// ReplicaHits counts hits on keys another node owns, answered from
	// this node's memory; ReplicasKept the owner hits it relayed and
	// kept once their digest matched (a verified hit finds no room when
	// every entry it could evict has served a hit); ReplicaRejects those
	// relayed but not kept, their body cut short or its digest different.
	ReplicaHits    int64 `json:"replica_hits"`
	ReplicasKept   int64 `json:"replicas_kept"`
	ReplicaRejects int64 `json:"replica_rejects"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() RouterStats {
	return RouterStats{
		Forwards:   rt.forwards.Value(),
		LocalJobs:  rt.localJobs.Value(),
		Reroutes:   rt.reroutes.Value(),
		Epoch:      rt.Epoch(),
		EpochSwaps: rt.epochSwaps.Value(),
		Kills:      rt.kills.Value(),
		Partitions: rt.partitions.Value(),
		PeerProbes: rt.peerProbes.Value(),
		PeerHits:   rt.peerHits.Value(),
		PeerSkips:  rt.peerSkips.Value(),

		ReplicaHits:    rt.replicaHits.Value(),
		ReplicasKept:   rt.replicasKept.Value(),
		ReplicaRejects: rt.replicaRejects.Value(),
	}
}
