package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jvmgc/internal/fleet"
	"jvmgc/internal/labd"
)

// The svc-mix workload: a two-node fleet in this process on loopback, each
// node a fleet router in front of a labd daemon, with static membership
// and the daemons' own tracing off. Two closed-loop clients, one per entry
// node, follow the seeded request plan: about nine hits on the primed hot
// set for every miss on a fresh spec. Closed loop matches labd's callers
// (labd/client, batch, scripts), which wait for each reply; NOTES.md
// records why an open loop cannot be timed on a small host.
//
// Set-up boots the fleet and primes the hot set. The fleet booted first
// serves the measured phase; further fleets are booted, timed and shut
// down between windows for more set-up readings. The unit of work is a
// block of svcBlock requests, measured in one-second windows.

const (
	svcSetupEvery = 5 // windows between two set-up readings
	svcBlock      = 1000
	svcWindow     = time.Second
	// svcCacheEntries bounds each node's result cache at the hot set plus
	// its most recent fresh results. Hits refresh a hot entry's recency
	// every few dozen requests, so eviction only ever drops fresh results
	// the plan never asks for again: the planned hit or miss of every
	// request stays exact, and the cache stops growing with the run's
	// length.
	svcCacheEntries = hotSpecs + 1024
	// Every verifyEvery-th miss keeps its body, which is recomputed on a
	// standalone daemon after the run and must match byte for byte.
	verifyEvery = 64
	echoPhase   = time.Second
	echoLength  = "X-Echo-Length"
)

type node struct {
	id, url string
	rt      *fleet.Router
	srv     *labd.Server
	hs      *http.Server
}

// hotSpec is one primed spec.
type hotSpec struct {
	spec  labd.JobSpec
	body  []byte // request body
	resp  []byte // response body at priming
	owner int    // index of the node whose memory holds the result
}

type svcFleet struct {
	nodes []*node
	hot   []hotSpec
	wg    sync.WaitGroup
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// bootFleet starts the nodes and primes the hot set through them. With
// spans non-nil every node's handler is wrapped to record handler spans.
func bootFleet(hot []labd.JobSpec, hc *http.Client, spans *handlerSpans) (*svcFleet, error) {
	f := &svcFleet{}
	members := map[string]string{}
	lns := make([]net.Listener, svcNodes)
	for i := range lns {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		lns[i] = l
		members[fmt.Sprintf("n%d", i)] = "http://" + l.Addr().String()
	}
	for i, l := range lns {
		id := fmt.Sprintf("n%d", i)
		n, err := startNode(id, members, l, spans)
		if err != nil {
			for _, l := range lns[i:] {
				_ = l.Close()
			}
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = n.hs.Serve(l)
		}()
	}
	var buf bytes.Buffer
	for i, spec := range hot {
		body, err := json.Marshal(labd.SubmitRequest{Job: spec})
		if err != nil {
			f.close()
			return nil, err
		}
		resp, err := post(hc, f.nodes[i%svcNodes].url+"/v1/jobs", body, "", "", &buf)
		if err == nil && (resp.status != http.StatusOK || resp.cache != "miss") {
			err = fmt.Errorf("status %d, cache %q", resp.status, resp.cache)
		}
		owner := f.nodeIndex(resp.node)
		if err == nil && owner < 0 {
			err = fmt.Errorf("answered by unknown node %q", resp.node)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("prime hot spec %d: %w", i, err)
		}
		f.hot = append(f.hot, hotSpec{spec: spec, body: body, resp: bytes.Clone(buf.Bytes()), owner: owner})
	}
	return f, nil
}

func startNode(id string, members map[string]string, l net.Listener, spans *handlerSpans) (*node, error) {
	rt, err := fleet.New(fleet.Config{Self: id, Nodes: members})
	if err != nil {
		return nil, err
	}
	srv, err := labd.New(labd.Config{CacheEntries: svcCacheEntries, NodeID: id, Peers: rt})
	if err != nil {
		rt.Close()
		return nil, err
	}
	rt.SetLocal(srv)
	var h http.Handler = rt.Handler()
	if spans != nil {
		h = spans.wrap(h)
	}
	return &node{id: id, url: members[id], rt: rt, srv: srv, hs: &http.Server{Handler: h}}, nil
}

func (f *svcFleet) nodeIndex(id string) int {
	for i, n := range f.nodes {
		if n.id == id {
			return i
		}
	}
	return -1
}

// close stops every node and waits for its server goroutine and its
// daemon's workers to exit.
func (f *svcFleet) close() {
	for _, n := range f.nodes {
		_ = n.hs.Close()
	}
	f.wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, n := range f.nodes {
		_ = n.srv.Drain(ctx)
		n.rt.Close()
	}
}

type response struct {
	status      int
	cache, node string
}

// post sends one submission and reads the whole response body into buf.
// A non-empty header name adds that header.
func post(hc *http.Client, url string, body []byte, header, value string, buf *bytes.Buffer) (response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(header, value)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return response{}, err
	}
	return response{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Labd-Cache"),
		node:   resp.Header.Get("X-Labd-Node"),
	}, nil
}

// handlerSpans records a span around each node's handler while a ledger
// is installed. The client's traceparent names the request and the
// client's span; X-Labd-Routed tells the owner node from the entry node.
type handlerSpans struct{ led atomic.Pointer[ledger] }

func (h *handlerSpans) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		led := h.led.Load()
		req, parent, ok := parseTraceparent(r.Header.Get("traceparent"))
		if led == nil || !ok {
			next.ServeHTTP(w, r)
			return
		}
		name := spanEntry
		if r.Header.Get(labd.HeaderRouted) != "" {
			name = spanOwner
		}
		s := led.begin(name, parent, req)
		next.ServeHTTP(w, r)
		led.end(s)
	})
}

// traceparent encodes a request number as the W3C trace ID and the
// client's span as the parent ID.
func traceparent(req, spanID int64) string {
	return fmt.Sprintf("00-%032x-%016x-01", req, spanID)
}

func parseTraceparent(h string) (req, spanID int64, ok bool) {
	parts := strings.Split(h, "-")
	if len(parts) != 4 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return 0, 0, false
	}
	r, err1 := strconv.ParseInt(parts[1][16:], 16, 64)
	s, err2 := strconv.ParseInt(parts[2], 16, 64)
	return r, s, err1 == nil && err2 == nil
}

// missSample is a miss's spec and the body the fleet returned for it.
type missSample struct {
	spec labd.JobSpec
	body []byte
}

// window is the cost of one measured window and the requests completed
// in it.
type window struct {
	cost
	requests int64
}

// load is what the clients saw over one or more windows.
type load struct {
	windows       []window
	requests      int64
	hits, misses  int64
	hitNS, missNS []float64
	failed        int64
	problems      []string
	samples       []missSample
}

func (l *load) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < 10 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

func (l *load) add(o *load) {
	l.windows = append(l.windows, o.windows...)
	l.requests += o.requests
	l.hits += o.hits
	l.misses += o.misses
	l.hitNS = append(l.hitNS, o.hitNS...)
	l.missNS = append(l.missNS, o.missNS...)
	l.failed += o.failed
	l.problems = append(l.problems, o.problems...)
	l.samples = append(l.samples, o.samples...)
}

func (l *load) wall() time.Duration {
	var d time.Duration
	for _, w := range l.windows {
		d += w.wall
	}
	return d
}

// drive runs the clients for the given number of windows. With a ledger,
// each client's timeline is a loadgen.client span and each request a
// client.hit or client.miss span carried to the fleet in traceparent.
func (f *svcFleet) drive(hc *http.Client, plans []*plan, windows int, led *ledger, reqIDs *atomic.Int64) *load {
	total := &load{}
	for range windows {
		per := make([]*load, len(plans))
		var wg sync.WaitGroup
		u := readUsage()
		deadline := u.wall.Add(svcWindow)
		for c := range plans {
			per[c] = &load{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.client(hc, c, plans[c], deadline, led, reqIDs, per[c])
			}()
		}
		wg.Wait()
		w := window{cost: u.since()}
		for _, l := range per {
			total.add(l)
			w.requests += l.requests
		}
		total.windows = append(total.windows, w)
	}
	return total
}

// client is one closed-loop client: it sends its next planned request as
// soon as the previous reply has been read and checked.
func (f *svcFleet) client(hc *http.Client, c int, pl *plan, deadline time.Time, led *ledger, reqIDs *atomic.Int64, l *load) {
	url := f.nodes[c].url + "/v1/jobs"
	var buf bytes.Buffer
	root := led.begin("loadgen.client", 0, 0)
	defer led.end(root)
	for time.Now().Before(deadline) {
		e := pl.next()
		body, want, name := []byte(nil), "hit", "client.hit"
		if e.Miss {
			var err error
			if body, err = json.Marshal(labd.SubmitRequest{Job: e.Spec}); err != nil {
				l.fail("encode miss spec: %v", err)
				continue
			}
			want, name = "miss", "client.miss"
		} else {
			body = f.hot[e.Hot].body
		}
		var s span
		header, value := "", ""
		if led != nil {
			id := reqIDs.Add(1)
			s = led.begin(name, root.ID, id)
			header, value = "traceparent", traceparent(id, s.ID)
		}
		start := time.Now()
		resp, err := post(hc, url, body, header, value, &buf)
		lat := float64(time.Since(start))
		led.end(s)
		l.requests++
		switch {
		case err != nil:
			l.fail("request: %v", err)
		case resp.status != http.StatusOK:
			l.fail("status %d for a planned %s", resp.status, want)
		case resp.cache != want:
			l.fail("X-Labd-Cache %q for a planned %s", resp.cache, want)
		case !e.Miss && !bytes.Equal(buf.Bytes(), f.hot[e.Hot].resp):
			l.fail("hit on hot spec %d returned bytes that differ from priming", e.Hot)
		case e.Miss && buf.Len() == 0:
			l.fail("miss returned an empty body")
		case e.Miss:
			l.misses++
			l.missNS = append(l.missNS, lat)
			if pl.misses%verifyEvery == 1 {
				l.samples = append(l.samples, missSample{e.Spec, bytes.Clone(buf.Bytes())})
			}
		default:
			l.hits++
			l.hitNS = append(l.hitNS, lat)
		}
	}
}

// fleetCounters is the fleet's own account of the traffic, summed over
// the nodes: the daemons' /metrics counters and the routers' Stats.
type fleetCounters struct {
	hits, misses, sims         float64
	queueWaitSum, queueWaitN   float64
	forwards, probes, peerHits int64
}

func (f *svcFleet) counters(hc *http.Client) (fleetCounters, error) {
	var c fleetCounters
	want := map[string]*float64{
		"jvmgc_labd_cache_hits_total":         &c.hits,
		"jvmgc_labd_cache_misses_total":       &c.misses,
		"jvmgc_labd_simulations_total":        &c.sims,
		"jvmgc_labd_queue_wait_seconds_sum":   &c.queueWaitSum,
		"jvmgc_labd_queue_wait_seconds_count": &c.queueWaitN,
	}
	for _, n := range f.nodes {
		resp, err := hc.Get(n.url + "/metrics")
		if err != nil {
			return c, err
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return c, err
		}
		for _, line := range strings.Split(string(text), "\n") {
			fields := strings.Fields(line)
			if len(fields) != 2 || want[fields[0]] == nil {
				continue
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return c, fmt.Errorf("node %s /metrics: %s: %w", n.id, fields[0], err)
			}
			*want[fields[0]] += v
		}
		st := n.rt.Stats()
		c.forwards += st.Forwards
		c.probes += st.PeerProbes
		c.peerHits += st.PeerHits
	}
	return c, nil
}

func (c fleetCounters) minus(b fleetCounters) fleetCounters {
	return fleetCounters{
		hits: c.hits - b.hits, misses: c.misses - b.misses, sims: c.sims - b.sims,
		queueWaitSum: c.queueWaitSum - b.queueWaitSum, queueWaitN: c.queueWaitN - b.queueWaitN,
		forwards: c.forwards - b.forwards, probes: c.probes - b.probes, peerHits: c.peerHits - b.peerHits,
	}
}

func runSvcMix(p params) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var spans *handlerSpans
	if p.traced {
		spans = &handlerSpans{}
	}
	hot := hotSet(p.seed)
	var setups []float64
	timedBoot := func() (*svcFleet, error) {
		start := time.Now()
		f, err := bootFleet(hot, hc, spans)
		if err == nil {
			setups = append(setups, time.Since(start).Seconds())
		}
		return f, err
	}
	f, err := timedBoot()
	if err != nil {
		return nil, err
	}
	defer f.close()
	before, err := f.counters(hc)
	if err != nil {
		return nil, err
	}
	plans := make([]*plan, svcNodes)
	for c := range plans {
		plans[c] = newPlan(p.seed, c)
	}
	windows := max(1, int(p.budget/svcWindow))
	if p.traced {
		windows = max(1, windows/2)
	}

	rt0 := readRuntime()
	heap := watchHeap()
	untraced, traced := &load{}, &load{}
	var led *ledger
	if !p.traced {
		// After every few windows the clients pause while one more fleet
		// is booted, primed, timed and shut down, so that the set-up
		// readings span the run as the other metrics do.
		for w := 0; w < windows; w += svcSetupEvery {
			untraced.add(f.drive(hc, plans, min(svcSetupEvery, windows-w), nil, nil))
			extra, err := timedBoot()
			if err != nil {
				return nil, err
			}
			extra.close()
		}
	} else {
		// Untraced and traced windows alternate: the untraced ones give
		// the client-side latencies and the baseline for the tracing
		// overhead, the traced ones the ledger.
		led = newLedger()
		ids := new(atomic.Int64)
		for range windows {
			untraced.add(f.drive(hc, plans, 1, nil, nil))
			spans.led.Store(led)
			traced.add(f.drive(hc, plans, 1, led, ids))
			spans.led.Store(nil)
		}
	}
	peak := heap.end()
	rt1 := readRuntime()
	all := &load{}
	all.add(untraced)
	all.add(traced)

	after, err := f.counters(hc)
	if err != nil {
		return nil, err
	}
	o.attempted = all.requests
	o.failed = all.failed
	o.problems = all.problems
	checkCounters(o, after.minus(before), all)
	verifyMisses(o, all.samples)

	hitP50, hitP99 := percentile(untraced.hitNS, 50)/1e6, percentile(untraced.hitNS, 99)/1e6
	missP50, missP99 := percentile(untraced.missNS, 50)/1e6, percentile(untraced.missNS, 99)/1e6
	rps := float64(untraced.requests) / untraced.wall().Seconds()
	fmt.Printf("# svc-mix: %d requests in %.1f s, %.0f req/s at 2 outstanding\n",
		untraced.requests, untraced.wall().Seconds(), rps)
	fmt.Printf("# svc-mix: %d hits p50 %.3f ms p99 %.3f ms; %d misses p50 %.3f ms p99 %.3f ms\n",
		untraced.hits, hitP50, hitP99, untraced.misses, missP50, missP99)

	if !p.traced {
		o.values["setup_s"] = median(setups)
		o.values["peak_heap_mb"] = peak
		perBlock := make(unitCosts, len(untraced.windows))
		for i, w := range untraced.windows {
			share := svcBlock / float64(max(w.requests, 1))
			perBlock[i] = cost{
				wall:  time.Duration(float64(w.wall) * share),
				cpu:   time.Duration(float64(w.cpu) * share),
				alloc: uint64(float64(w.alloc) * share),
			}
		}
		perBlock.report(o.values)
		return o, nil
	}

	d := after.minus(before)
	v := o.values
	v["svc.rps"] = rps
	v["svc.hits"] = float64(untraced.hits)
	v["svc.misses"] = float64(untraced.misses)
	v["svc.hit_p50_ms"], v["svc.hit_p99_ms"] = hitP50, hitP99
	v["svc.miss_p50_ms"], v["svc.miss_p99_ms"] = missP50, missP99
	v["runtime.gc_cpu_frac"], v["runtime.gc_pause_p99_ms"] = gcShare(rt0, rt1)
	v["trace_overhead"] = (traced.wall().Seconds()/float64(traced.requests))/
		(untraced.wall().Seconds()/float64(untraced.requests)) - 1
	v["fleet.forward_frac"] = float64(d.forwards) / float64(all.requests)
	v["fleet.peer_probes"] = float64(d.probes)
	if d.probes > 0 {
		v["fleet.peer_hit_ratio"] = float64(d.peerHits) / float64(d.probes)
	}
	if d.hits+d.misses > 0 {
		v["labd.cache_hit_ratio"] = d.hits / (d.hits + d.misses)
	}
	if d.queueWaitN > 0 {
		v["labd.queue_wait_ms"] = d.queueWaitSum / d.queueWaitN * 1e3
	}
	traceSpans := led.snapshot()
	for k, x := range svcLedger(traceSpans, traced.requests) {
		v[k] = x
	}
	if v["nethttp.echo_us"], err = echoFloor(f, hc, p.seed); err != nil {
		return nil, err
	}
	if v["labd.fastpath_us"], err = fastPath(f); err != nil {
		return nil, err
	}
	return o, writeSpans("svc-mix", p.seed, traceSpans)
}

// checkCounters compares the fleet's counters with the plan: every
// planned hit is a cache hit, every planned miss a cache miss that ran
// exactly one simulation.
func checkCounters(o *outcome, d fleetCounters, l *load) {
	if int64(d.hits) != l.hits || int64(d.misses) != l.misses || int64(d.sims) != l.misses {
		o.fail(1, "svc-mix: fleet counted %v hits, %v misses, %v simulations; the plan completed %d hits and %d misses",
			d.hits, d.misses, d.sims, l.hits, l.misses)
	}
}

// verifyMisses recomputes the sampled misses on a standalone daemon: the
// fleet must return the bytes a single node does.
func verifyMisses(o *outcome, samples []missSample) {
	srv, err := labd.New(labd.Config{CacheEntries: len(samples) + 1})
	if err != nil {
		o.fail(1, "svc-mix: standalone daemon: %v", err)
		return
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	}()
	for _, s := range samples {
		j, err := srv.Submit(labd.SubmitRequest{Job: s.spec})
		if err != nil {
			o.fail(1, "svc-mix: recompute seed %d: %v", s.spec.Seed, err)
			continue
		}
		<-j.Done()
		want, err := j.Result()
		if err != nil || !bytes.Equal(want, s.body) {
			o.fail(1, "svc-mix: miss on seed %d returned bytes a single node does not", s.spec.Seed)
		}
	}
}

// svcLedger derives the request-path metrics from the traced phase's
// spans, in microseconds: medians over requests of each hop's self time.
func svcLedger(spans []span, requests int64) map[string]float64 {
	linkHops(spans)
	self := selfTimes(spans)
	type reqSpans struct{ client, entry, owner *span }
	byReq := map[int64]*reqSpans{}
	var gap int64
	for i := range spans {
		s := &spans[i]
		if s.Name == "loadgen.client" {
			gap += self[s.ID]
		}
		if s.Req == 0 {
			continue
		}
		r := byReq[s.Req]
		if r == nil {
			r = &reqSpans{}
			byReq[s.Req] = r
		}
		switch s.Name {
		case spanEntry:
			r.entry = s
		case spanOwner:
			r.owner = s
		default:
			r.client = s
		}
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var clientHop, forwardHop, serveHit, serveMiss []float64
	for _, r := range byReq {
		if r.client == nil || r.entry == nil {
			continue
		}
		clientHop = append(clientHop, us(self[r.client.ID]))
		serve := r.entry
		if r.owner != nil {
			forwardHop = append(forwardHop, us(self[r.entry.ID]))
			serve = r.owner
		}
		if r.client.Name == "client.hit" {
			serveHit = append(serveHit, us(serve.dur()))
		} else {
			serveMiss = append(serveMiss, us(serve.dur()))
		}
	}
	return map[string]float64{
		"nethttp.client_hop_us": median(clientHop),
		"fleet.forward_hop_us":  median(forwardHop),
		"labd.serve_hit_us":     median(serveHit),
		"labd.serve_miss_us":    median(serveMiss),
		"loadgen.gap_us":        us(gap) / float64(max(requests, 1)),
		"unattributed_frac":     unattributed(spans, self),
	}
}

// echoFloor sends the hot set's request bodies to a handler that reads
// the body and answers with as many bytes as the real hit would, over the
// same client and loopback, from two closed-loop clients. It returns the
// median round trip in microseconds: the floor under a hit.
func echoFloor(f *svcFleet, hc *http.Client, seed uint64) (float64, error) {
	longest := 0
	for _, h := range f.hot {
		longest = max(longest, len(h.resp))
	}
	zeros := make([]byte, longest)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		n, _ := strconv.Atoi(r.Header.Get(echoLength))
		n = min(max(n, 0), len(zeros))
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(zeros[:n])
	})}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		_ = hs.Serve(l)
	}()
	defer func() {
		_ = hs.Close()
		serving.Wait()
	}()
	url := "http://" + l.Addr().String() + "/v1/jobs"
	rtts := make([][]float64, svcNodes)
	errs := make([]error, svcNodes)
	deadline := time.Now().Add(echoPhase)
	var wg sync.WaitGroup
	for c := range rtts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng{seed + uint64(c)}
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				h := &f.hot[r.intn(len(f.hot))]
				start := time.Now()
				resp, err := post(hc, url, h.body, echoLength, strconv.Itoa(len(h.resp)), &buf)
				if err == nil && (resp.status != http.StatusOK || buf.Len() != len(h.resp)) {
					err = fmt.Errorf("echo: status %d, %d bytes", resp.status, buf.Len())
				}
				if err != nil {
					errs[c] = err
					return
				}
				rtts[c] = append(rtts[c], float64(time.Since(start))/1e3)
			}
		}()
	}
	wg.Wait()
	var all []float64
	for c := range rtts {
		if errs[c] != nil {
			return 0, errs[c]
		}
		all = append(all, rtts[c]...)
	}
	return median(all), nil
}

// fastPath times Server.TryCacheHit on the hot set, in process on each
// spec's owner node: the daemon's own cost of a hit, in microseconds.
// It runs after the counter check because it counts as hits.
func fastPath(f *svcFleet) (float64, error) {
	const rounds, calls = 25, 1024
	readings := make([]float64, rounds)
	for i := range readings {
		start := time.Now()
		for k := range calls {
			h := &f.hot[k%len(f.hot)]
			if _, _, ok := f.nodes[h.owner].srv.TryCacheHit(h.spec); !ok {
				return 0, fmt.Errorf("fast path declined hot spec %d", k%len(f.hot))
			}
		}
		readings[i] = float64(time.Since(start)) / calls / 1e3
	}
	return median(readings), nil
}
