package gossip

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// Chaos fault sites on the gossip path (sender side, so a "drop" means
// the message never leaves this node and the probe counts as failed).
const (
	// FaultGossipDrop drops an outgoing gossip message.
	FaultGossipDrop = "fleet/gossip.drop"
	// FaultGossipDelay sleeps before an outgoing gossip message.
	FaultGossipDelay = "fleet/gossip.delay"
)

// errDropped marks a send suppressed by the chaos injector.
var errDropped = errors.New("gossip: message dropped by fault injector")

// pauseFloorMultiplier scales the Go runtime's worst observed GC pause
// into a floor for the suspect timeout. The failure detector's canonical
// false positive is declaring a GC-stalled node dead (Liang et al.,
// arXiv 2405.11182) — and this daemon both simulates GC pauses and
// suffers its own. A suspicion must outlive ~32 worst-case pauses before
// it can become a death, so a pause-length stall is refuted instead.
const pauseFloorMultiplier = 32

// floorRefreshTicks is how often (in gossip ticks) the pause floor is
// re-read from runtime/metrics.
const floorRefreshTicks = 64

// recoveryEvery: every Nth tick probes a dead member instead of a live
// one, carrying the death claim so a revived or re-partitioned node can
// refute it and rejoin.
const recoveryEvery = 8

// Config configures a Gossiper.
type Config struct {
	// Self is this node's fleet ID; URL its advertised base URL.
	Self string
	URL  string
	// Peers seeds the membership with statically-known nodes (id → URL,
	// self ignored) — gclabd's -peers boot, where every node starts with
	// the same list and gossip takes over from there.
	Peers map[string]string
	// Joining starts this node outside placement: it must Join a seed,
	// warm its arc, then Announce. The zero value is the static boot,
	// where the node is placed from the first tick. A standalone router
	// sets Joining and never announces: it probes and learns liveness
	// but makes no claim about itself, so no one places it.
	Joining bool

	// Interval is the gossip tick period (default 1s).
	Interval time.Duration
	// ProbeTimeout bounds one ping or ping-req round trip (default
	// Interval/2).
	ProbeTimeout time.Duration
	// SuspectTimeout is how long a suspicion lives before becoming a
	// death declaration (default 8×Interval; raised at runtime to at
	// least pauseFloorMultiplier × the Go runtime's max GC pause).
	SuspectTimeout time.Duration
	// IndirectProbes is K, the number of proxies asked to ping-req a
	// peer that missed its direct probe (default 2).
	IndirectProbes int
	// PiggybackLimit caps membership deltas per message (default 8).
	PiggybackLimit int

	// HTTPClient is the transport for gossip I/O (default
	// http.DefaultClient; tests inject per-fleet transports).
	HTTPClient *http.Client
	// Metrics receives the fleet.gossip.* counters (nil = none).
	Metrics *telemetry.Metrics
	// Chaos injects drops and delays on the send path (nil = off).
	Chaos *faultinject.Injector
	// OnUpdate fires after every placement or routability change with
	// the new epoch, the placement set and its suspects (sorted), which
	// keep their arcs but must not be routed to; the router swaps its
	// view here. Calls are serialized.
	OnUpdate func(epoch uint64, urls map[string]string, suspects []string)
}

// Gossiper runs the SWIM loop for one node: a periodic probe tick, the
// HTTP endpoints peers probe, and the join/announce/leave choreography.
type Gossiper struct {
	cfg Config
	ml  *Memberlist
	hc  *http.Client

	// Probe rotation state, owned by the tick goroutine.
	targets    []string
	targetIdx  int
	staleSched atomic.Bool // placement changed; rebuild rotation

	// Reused buffers. Owned by the tick→probe chain: tick only touches
	// them after winning the probing CAS, and the probe goroutine
	// releases the flag when done, so ownership hands over through the
	// atomic.
	buf     []byte
	reqBuf  []byte
	piggy   []Delta
	proxies []string
	probing atomic.Bool

	suspectNanos atomic.Int64  // effective suspect timeout
	ticks        atomic.Uint64 // paces the pause-floor refresh

	rngMu    sync.Mutex
	rngState uint64

	notifyMu sync.Mutex

	// onRefute runs after this node refutes a claim about itself (see
	// OnRefute).
	onRefute func()

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	cTicks, cPings, cAcks, cPingFail *telemetry.CounterHandle
}

// gossipCounters is the full fleet.gossip.* family, pre-registered so
// every node exports the same counter set from boot (zeroes included) —
// the leave-vs-kill dissection in EXPERIMENTS.md diffs these.
var gossipCounters = []string{
	"fleet.gossip.ticks",
	"fleet.gossip.pings",
	"fleet.gossip.acks",
	"fleet.gossip.ping.failures",
	"fleet.gossip.pingreq.sent",
	"fleet.gossip.pingreq.relayed",
	"fleet.gossip.suspects",
	"fleet.gossip.refutations",
	"fleet.gossip.deaths",
	"fleet.gossip.joins",
	"fleet.gossip.leaves",
	"fleet.gossip.deltas.applied",
	"fleet.gossip.drops",
	"fleet.gossip.warmup.keys",
	"fleet.gossip.handoff.keys",
	"fleet.gossip.handoff.aborts",
}

// New builds a Gossiper. Start launches the tick loop; the Handler must
// be mounted on the node's HTTP server either way, since even a
// not-yet-started joiner answers pings.
func New(cfg Config) (*Gossiper, error) {
	if cfg.Self == "" || cfg.URL == "" {
		return nil, errors.New("gossip: Config.Self and Config.URL are required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.Interval / 2
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = 8 * cfg.Interval
	}
	if cfg.IndirectProbes <= 0 {
		cfg.IndirectProbes = 2
	}
	if cfg.PiggybackLimit <= 0 {
		cfg.PiggybackLimit = 8
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	g := &Gossiper{
		cfg:      cfg,
		ml:       NewMemberlist(cfg.Self, cfg.URL, !cfg.Joining),
		hc:       hc,
		rngState: hashString(cfg.Self) ^ 0x6a09e667f3bcc908,
		done:     make(chan struct{}),
	}
	for id, url := range cfg.Peers {
		if id == cfg.Self {
			continue
		}
		g.ml.Apply(Delta{ID: id, URL: url, State: StateAlive, Inc: 0})
	}
	for _, name := range gossipCounters {
		cfg.Metrics.Add(name, 0)
	}
	g.cTicks = cfg.Metrics.CounterHandle("fleet.gossip.ticks")
	g.cPings = cfg.Metrics.CounterHandle("fleet.gossip.pings")
	g.cAcks = cfg.Metrics.CounterHandle("fleet.gossip.acks")
	g.cPingFail = cfg.Metrics.CounterHandle("fleet.gossip.ping.failures")
	g.refreshSuspectFloor()
	g.staleSched.Store(true)
	return g, nil
}

// hashString is FNV-1a (the same mix the ring and injector use).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// nextRand steps a splitmix64 stream — probe-order shuffling and seed
// choice, not cryptography.
func (g *Gossiper) nextRand() uint64 {
	g.rngMu.Lock()
	g.rngState += 0x9e3779b97f4a7c15
	z := g.rngState
	g.rngMu.Unlock()
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Memberlist exposes the membership state machine (read-mostly: the
// router renders /fleet/state's member rows from it).
func (g *Gossiper) Memberlist() *Memberlist { return g.ml }

// SuspectTimeout returns the effective suspect timeout — the configured
// value, raised to the GC-pause floor.
func (g *Gossiper) SuspectTimeout() time.Duration {
	return time.Duration(g.suspectNanos.Load())
}

// refreshSuspectFloor re-reads the Go runtime's pause histogram and
// raises the suspect timeout to pauseFloorMultiplier × the worst pause.
func (g *Gossiper) refreshSuspectFloor() {
	eff := g.cfg.SuspectTimeout
	if s := obs.ReadRuntimeSample(); s.PauseMax > 0 {
		if floor := time.Duration(s.PauseMax * pauseFloorMultiplier * float64(time.Second)); floor > eff {
			eff = floor
		}
	}
	g.suspectNanos.Store(int64(eff))
}

// Start launches the tick loop. Safe to call once.
func (g *Gossiper) Start() {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(g.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-g.done:
				return
			case <-t.C:
				g.tick()
			}
		}
	}()
}

// Close stops the tick loop and waits for any in-flight probe.
func (g *Gossiper) Close() {
	g.closeOnce.Do(func() { close(g.done) })
	g.wg.Wait()
}

// tick runs one protocol period: expire suspicions, pick a target,
// encode the ping, launch the probe. Selection and encoding are
// allocation-free in steady state (BenchmarkGossipTick pins this); the
// network round itself runs on a probe goroutine so a slow peer can't
// stall the ticker.
func (g *Gossiper) tick() {
	n := g.ticks.Add(1)
	g.cTicks.Add(1)
	if n%floorRefreshTicks == 0 {
		g.refreshSuspectFloor()
	}
	if deaths, changed := g.ml.ExpireSuspects(time.Now(), g.SuspectTimeout()); len(deaths) > 0 {
		g.cfg.Metrics.Add("fleet.gossip.deaths", int64(len(deaths)))
		if changed {
			g.notify()
		}
	}
	if g.ml.Left() {
		return // a leaver answers pings but originates nothing
	}
	if !g.probing.CompareAndSwap(false, true) {
		return // previous probe still in flight; skip this period
	}
	target := g.prepareTick(n)
	if target == "" {
		g.probing.Store(false)
		return
	}
	g.wg.Add(1)
	go g.probe(target)
}

// prepareTick picks this period's probe target and encodes the ping into
// g.buf. Returns "" when there is no one to probe. Caller must hold the
// probing flag.
func (g *Gossiper) prepareTick(tickN uint64) string {
	var target string
	if tickN%recoveryEvery == 0 {
		// Recovery period: probe a dead member, if any.
		g.proxies = g.ml.AppendDead(g.proxies[:0])
		if len(g.proxies) > 0 {
			target = g.proxies[int(g.nextRand()%uint64(len(g.proxies)))]
		}
	}
	if target == "" {
		if g.staleSched.Swap(false) || g.targetIdx >= len(g.targets) {
			g.targets = g.ml.AppendProbeTargets(g.targets[:0])
			// Fisher–Yates: random round-robin gives every member a
			// bounded probe interval, unlike pure random selection.
			for i := len(g.targets) - 1; i > 0; i-- {
				j := int(g.nextRand() % uint64(i+1))
				g.targets[i], g.targets[j] = g.targets[j], g.targets[i]
			}
			g.targetIdx = 0
		}
		for g.targetIdx < len(g.targets) {
			id := g.targets[g.targetIdx]
			g.targetIdx++
			// The rotation may predate a state change; skip the unplaced.
			if st, _, ok := g.ml.State(id); ok && st.InPlacement() {
				target = id
				break
			}
		}
	}
	if target == "" {
		return ""
	}
	g.piggy = g.ml.appendSelf(g.piggy[:0])
	// Tell a suspect or dead target what the fleet thinks of it: the
	// claim may have exhausted its piggyback budget long ago, and
	// carrying it directly is what gives the target its chance to
	// refute (the GC-pause false-positive path depends on this).
	if st, inc, ok := g.ml.State(target); ok && (st == StateSuspect || st == StateDead) {
		g.piggy = append(g.piggy, Delta{ID: target, State: st, Inc: inc})
	}
	g.piggy = g.ml.AppendPiggyback(g.piggy, g.cfg.PiggybackLimit)
	g.buf = appendMessage(g.buf[:0], msgPing, g.cfg.Self, "", g.piggy)
	return target
}

// probe runs the SWIM probe chain for one target: direct ping, then K
// indirect ping-reqs, then suspicion. An ack confirms the target, which
// returns a suspect to routing. Owns g.buf/g.reqBuf/g.proxies until it
// releases the probing flag.
func (g *Gossiper) probe(target string) {
	defer g.wg.Done()
	defer g.probing.Store(false)
	url := g.ml.URL(target)
	if url == "" {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeTimeout)
	g.cPings.Add(1)
	ack, err := g.send(ctx, url, "/v1/gossip/ping", g.buf)
	cancel()
	if err == nil {
		g.cAcks.Add(1)
		g.applyAll(ack.Deltas)
		if g.ml.Confirm(target) {
			g.notify()
		}
		return
	}
	g.cPingFail.Add(1)

	// Indirect round: ask K proxies to ping the target for us. A
	// partitioned *path* (us↔target) is not a dead node; only a target
	// no proxy can reach earns a suspicion.
	g.proxies = g.proxies[:0]
	g.proxies = g.ml.AppendProbeTargets(g.proxies)
	// Drop the target itself and shuffle.
	for i := 0; i < len(g.proxies); i++ {
		if g.proxies[i] == target {
			g.proxies[i] = g.proxies[len(g.proxies)-1]
			g.proxies = g.proxies[:len(g.proxies)-1]
			break
		}
	}
	for i := len(g.proxies) - 1; i > 0; i-- {
		j := int(g.nextRand() % uint64(i+1))
		g.proxies[i], g.proxies[j] = g.proxies[j], g.proxies[i]
	}
	k := g.cfg.IndirectProbes
	if k > len(g.proxies) {
		k = len(g.proxies)
	}
	if k > 0 {
		g.reqBuf = appendMessage(g.reqBuf[:0], msgPingReq, g.cfg.Self, target, g.piggy)
		confirmed := make(chan bool, k)
		ctx, cancel := context.WithTimeout(context.Background(), 2*g.cfg.ProbeTimeout)
		for i := 0; i < k; i++ {
			proxyURL := g.ml.URL(g.proxies[i])
			if proxyURL == "" {
				confirmed <- false
				continue
			}
			g.cfg.Metrics.Add("fleet.gossip.pingreq.sent", 1)
			go func(u string) {
				ack, err := g.send(ctx, u, "/v1/gossip/ping-req", g.reqBuf)
				if err == nil {
					g.applyAll(ack.Deltas)
				}
				confirmed <- err == nil
			}(proxyURL)
		}
		ok := false
		for i := 0; i < k; i++ {
			if <-confirmed {
				ok = true
			}
		}
		cancel()
		if ok {
			if g.ml.Confirm(target) {
				g.notify()
			}
			return
		}
	}

	g.Suspect(target)
}

// Suspect marks a placed member suspect — the transition a failed probe
// chain makes — and tells OnUpdate, so routers stop routing to it. The
// router calls it when a connection to the member fails on the data
// path. The member keeps its arcs; a probe's ack or its own refutation
// returns it to routing, and an unrefuted suspicion becomes a death
// after the suspect timeout.
func (g *Gossiper) Suspect(id string) {
	if _, ok := g.ml.Suspect(id); ok {
		g.cfg.Metrics.Add("fleet.gossip.suspects", 1)
		g.notify()
	}
}

// send posts one gossip message and decodes the ack. The chaos injector
// sits on this path: a drop suppresses the send entirely (the failure
// mode of a lossy network), a delay stalls it.
func (g *Gossiper) send(ctx context.Context, base, path string, body []byte) (*message, error) {
	if g.cfg.Chaos.Fire(FaultGossipDrop) {
		g.cfg.Metrics.Add("fleet.gossip.drops", 1)
		return nil, errDropped
	}
	if d := g.cfg.Chaos.Latency(FaultGossipDelay); d > 0 {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := g.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("gossip: %s%s: status %d", base, path, resp.StatusCode)
	}
	var m message
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("gossip: decoding ack from %s: %w", base, err)
	}
	return &m, nil
}

// OnRefute sets fn to run each time this node refutes a claim that it
// is suspect, dead or gone: peers that routed around it route to it
// again. A refutation changes no placement this node sees, so OnUpdate
// does not fire for it. Set it before Start and before the Handler
// serves.
func (g *Gossiper) OnRefute(fn func()) { g.onRefute = fn }

// applyAll merges received deltas and fires OnUpdate once if placement
// or routability changed.
func (g *Gossiper) applyAll(deltas []Delta) {
	changed := false
	for _, d := range deltas {
		c, refuted := g.ml.Apply(d)
		if c {
			changed = true
		}
		if refuted {
			g.cfg.Metrics.Add("fleet.gossip.refutations", 1)
			if g.onRefute != nil {
				g.onRefute()
			}
		}
		if d.State == StateLeft {
			g.cfg.Metrics.Add("fleet.gossip.leaves", 1)
		}
	}
	g.cfg.Metrics.Add("fleet.gossip.deltas.applied", int64(len(deltas)))
	if changed {
		g.notify()
	}
}

// notify pushes the new placement to OnUpdate. Serialized, and the
// placement is read under the same lock, so updates cannot be delivered
// out of order with respect to each other.
func (g *Gossiper) notify() {
	g.staleSched.Store(true)
	if g.cfg.OnUpdate == nil {
		return
	}
	g.notifyMu.Lock()
	defer g.notifyMu.Unlock()
	g.cfg.OnUpdate(g.ml.routing())
}

// Handler returns the gossip endpoints, mounted by the router under
// /v1/gossip/.
func (g *Gossiper) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/gossip/ping", g.handlePing)
	mux.HandleFunc("POST /v1/gossip/ping-req", g.handlePingReq)
	mux.HandleFunc("POST /v1/gossip/join", g.handleJoin)
	return mux
}

// decode reads one message from a request body.
func decode(r *http.Request) (*message, error) {
	var m message
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// ack writes a 200 ack carrying this node's self delta plus queued
// piggyback — the heartbeat every exchange doubles as, and the channel a
// refutation rides back on.
func (g *Gossiper) ack(w http.ResponseWriter) {
	deltas := g.ml.appendSelf(make([]Delta, 0, 1+g.cfg.PiggybackLimit))
	deltas = g.ml.AppendPiggyback(deltas, len(deltas)+g.cfg.PiggybackLimit)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(message{T: msgAck, From: g.cfg.Self, Deltas: deltas})
}

func (g *Gossiper) handlePing(w http.ResponseWriter, r *http.Request) {
	m, err := decode(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.applyAll(m.Deltas)
	g.ack(w)
}

// handlePingReq proxies a probe: the origin could not reach the target
// directly, so it asks this node to try. 200 means the target acked
// through us; 502 means we could not reach it either.
func (g *Gossiper) handlePingReq(w http.ResponseWriter, r *http.Request) {
	m, err := decode(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.applyAll(m.Deltas)
	g.cfg.Metrics.Add("fleet.gossip.pingreq.relayed", 1)
	if m.Target == "" || m.Target == g.cfg.Self {
		http.Error(w, "gossip: ping-req without a remote target", http.StatusBadRequest)
		return
	}
	url := g.ml.URL(m.Target)
	if url == "" {
		http.Error(w, "gossip: unknown ping-req target", http.StatusBadGateway)
		return
	}
	body, err := json.Marshal(message{T: msgPing, From: g.cfg.Self, Deltas: g.ml.appendSelf(nil)})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ProbeTimeout)
	defer cancel()
	ack, err := g.send(ctx, url, "/v1/gossip/ping", body)
	if err != nil {
		http.Error(w, fmt.Sprintf("gossip: relay to %s failed: %v", m.Target, err), http.StatusBadGateway)
		return
	}
	g.applyAll(ack.Deltas)
	g.ack(w)
}

// handleJoin serves a membership snapshot to a joining node. The joiner
// is deliberately NOT added to membership here: it stays outside
// placement until it has warmed its arc and Announces itself.
func (g *Gossiper) handleJoin(w http.ResponseWriter, r *http.Request) {
	m, err := decode(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g.applyAll(m.Deltas)
	g.cfg.Metrics.Add("fleet.gossip.joins", 1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(message{T: msgAck, From: g.cfg.Self, Deltas: g.ml.Snapshot()})
}

// Retry runs f with capped, full-jitter exponential backoff until it
// succeeds, attempts run out, or ctx expires: the wait before retry i+1
// is uniform in [0, min(base·2ⁱ, max)) plus a millisecond. Full jitter
// because under churn many nodes retry at once, and synchronized retries
// are how thundering herds happen. It is the fleet's one retry loop —
// gossip joins and broadcasts, and the router's warm-up and handoff
// transfers — and needs no Gossiper, since a router may run without one.
func Retry(ctx context.Context, attempts int, base, max time.Duration, f func() error) error {
	var err error
	backoff := min(base, max)
	for i := 0; i < attempts; i++ {
		if err = ctx.Err(); err != nil {
			return err
		}
		if err = f(); err == nil {
			return nil
		}
		if i == attempts-1 {
			break
		}
		var sleep time.Duration
		if backoff > 0 {
			sleep = rand.N(backoff)
		}
		select {
		case <-time.After(sleep + time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
		// Doubling the envelope, not shifting base by the attempt, keeps
		// it at max however many attempts there are.
		backoff = min(2*backoff, max)
	}
	return err
}

// Join fetches a membership snapshot from the first reachable seed URL,
// retrying with backoff across seeds. After Join the node knows the
// fleet but the fleet does not place the node — warm up, then Announce.
func (g *Gossiper) Join(ctx context.Context, seeds []string) error {
	if len(seeds) == 0 {
		return errors.New("gossip: Join needs at least one seed URL")
	}
	body, err := json.Marshal(message{T: msgJoin, From: g.cfg.Self, URL: g.cfg.URL})
	if err != nil {
		return err
	}
	i := int(g.nextRand() % uint64(len(seeds)))
	return Retry(ctx, 4*len(seeds), 50*time.Millisecond, 2*time.Second, func() error {
		seed := seeds[i%len(seeds)]
		i++
		sctx, cancel := context.WithTimeout(ctx, 2*g.cfg.ProbeTimeout)
		defer cancel()
		snap, err := g.send(sctx, seed, "/v1/gossip/join", body)
		if err != nil {
			return err
		}
		g.applyAll(snap.Deltas)
		return nil
	})
}

// Announce moves this node into placement and pushes the fact at up to
// three peers immediately — the rest of the fleet learns within a
// gossip round or two.
func (g *Gossiper) Announce(ctx context.Context) {
	g.ml.Announce()
	g.notify()
	g.broadcast(ctx, 3)
}

// Leave marks this node gracefully left and broadcasts the departure.
// The caller (the router's drain path) hands off cache keys and drains
// jobs after this returns; the leaver keeps answering gossip — as a
// "left" member — until the process exits.
func (g *Gossiper) Leave(ctx context.Context) {
	g.ml.Leave()
	g.cfg.Metrics.Add("fleet.gossip.leaves", 1)
	g.notify()
	g.broadcast(ctx, 3)
}

// broadcast pings up to n placed peers right now (with retries), rather
// than waiting for the tick loop — joins and leaves deserve eager
// dissemination.
func (g *Gossiper) broadcast(ctx context.Context, n int) {
	ids := g.ml.AppendProbeTargets(nil)
	for i := len(ids) - 1; i > 0; i-- {
		j := int(g.nextRand() % uint64(i+1))
		ids[i], ids[j] = ids[j], ids[i]
	}
	if n > len(ids) {
		n = len(ids)
	}
	deltas := g.ml.AppendPiggyback(g.ml.appendSelf(nil), g.cfg.PiggybackLimit)
	body, err := json.Marshal(message{T: msgPing, From: g.cfg.Self, Deltas: deltas})
	if err != nil {
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		url := g.ml.URL(ids[i])
		if url == "" {
			continue
		}
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			Retry(ctx, 3, 25*time.Millisecond, 500*time.Millisecond, func() error {
				sctx, cancel := context.WithTimeout(ctx, 2*g.cfg.ProbeTimeout)
				defer cancel()
				ack, err := g.send(sctx, u, "/v1/gossip/ping", body)
				if err != nil {
					return err
				}
				g.applyAll(ack.Deltas)
				return nil
			})
		}(url)
	}
	wg.Wait()
}
