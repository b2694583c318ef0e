// Package labd turns the GC laboratory into a long-running service: a
// job daemon that accepts simulation requests over HTTP/JSON, runs them
// in arrival order on a bounded worker pool (internal/sweep) with
// backpressure, and memoizes results in a content-addressed cache.
//
// Every experiment in this laboratory is deterministic in its spec
// (collector, geometry, workload, seed), which the daemon exploits
// twice:
//
//   - Content addressing: a normalized spec's SHA-256 is its identity.
//     A repeated request is answered from the cache with the exact bytes
//     the cold run produced.
//   - Single-flight: concurrent identical requests coalesce onto one
//     execution; every caller gets the same bytes, and the simulation
//     runs once.
//
// The observability surface is one telemetry.Metrics set — job and cache
// counters, live scheduler gauges, the job-latency and queue-wait
// histograms — that a fleet node's router and gossiper count into too;
// /metrics renders it and /v1/state ships it to the fleet rollup.
//
// Assembly: New builds the daemon, Handler serves the API, Drain stops
// intake and waits for in-flight work — the pieces cmd/gclabd wires to a
// net/http server and SIGTERM. The HTTP surface lives in http.go, the
// scheduler here, the cache in cache.go, and spec execution in run.go.
package labd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/obs"
	"jvmgc/internal/sweep"
	"jvmgc/internal/telemetry"
)

// Config parameterizes the daemon. Zero values select the defaults.
type Config struct {
	// Workers is the number of concurrent job executors
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the queued backlog; a full queue rejects
	// submissions with ErrQueueFull (HTTP 429). Default 64.
	QueueDepth int
	// CacheEntries bounds the result cache (LRU eviction). Default 256.
	CacheEntries int
	// DefaultTimeout bounds a job's queue-plus-run time when the request
	// does not set one. Default 2 minutes.
	DefaultTimeout time.Duration
	// Parallelism is the per-job worker fan-out for sweep-shaped kinds
	// (advise, ranking). Default 1: concurrency comes from the daemon's
	// worker pool, not from inside jobs.
	Parallelism int
	// MaxJobRecords bounds the in-memory job registry (completed records
	// are evicted oldest-first past the bound). Default 1024.
	MaxJobRecords int
	// CacheDir, when set, backs the result cache with a crash-safe
	// on-disk tier: entries are SHA-256-verified, written atomically
	// (write-then-rename), survive restarts and LRU eviction, and
	// corrupt entries are detected on read and transparently recomputed.
	// Empty keeps the cache memory-only.
	CacheDir string
	// Chaos is the fault injector threaded through the scheduler, cache
	// and HTTP surface (see the Fault* site constants). Nil — the
	// default — is a zero-cost no-op; production daemons never pay for
	// the fault points they carry.
	Chaos *faultinject.Injector
	// Tracer enables request tracing: every submission gets (or adopts,
	// via an inbound traceparent header) a trace that follows the job
	// through cache lookup, queue wait, the executing worker and the
	// simulation's own GC pauses, served at /debug/traces. Nil — the
	// default — disables tracing at the cost of one nil check per site.
	Tracer *obs.Tracer
	// SLO enables the burn-rate monitor over finished-job latency and
	// errors, served at /debug/slo and as /metrics gauges. Nil disables.
	SLO *obs.SLO
	// NodeID names this daemon instance in a fleet. When set, every
	// response carries it in X-Labd-Node, /v1/state reports it, and
	// traces exported for fleet aggregation are stamped with it.
	// Empty (the default) means a standalone daemon.
	NodeID string
	// Peers, when set, adds a peer cache tier: a flight leader that
	// misses memory and disk asks the fleet for the key's bytes
	// (SHA-256-verified) before paying for a recomputation. Nil — the
	// default — keeps the cache node-local.
	Peers PeerFetcher
}

// PeerFetcher is the peer cache tier's transport: given a content
// address, fetch the result bytes from another fleet node, verifying
// integrity before returning them (ok). probed reports whether a peer
// was asked at all: a fetcher may answer a miss without a request.
// internal/fleet's Router implements it over HTTP GET /v1/cache/{key}.
type PeerFetcher interface {
	Fetch(ctx context.Context, key string) (b []byte, ok, probed bool)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 1
	}
	if c.MaxJobRecords <= 0 {
		c.MaxJobRecords = 1024
	}
	return c
}

// Submission errors surfaced to the HTTP layer.
var (
	// ErrQueueFull reports backpressure: the queued backlog is at
	// capacity.
	ErrQueueFull = errors.New("labd: job queue full")
	// ErrDraining reports a daemon that has stopped accepting work.
	ErrDraining = errors.New("labd: draining, not accepting jobs")
	// ErrJobPanicked marks a job whose execution panicked. The panic is
	// confined to the job: its error carries the recovered value and
	// stack, the daemon keeps serving, and labd.jobs.panicked counts it.
	ErrJobPanicked = errors.New("labd: job panicked")
)

// Fault-injection sites the daemon carries (internal/faultinject). All
// of them are inert unless Config.Chaos arms them.
const (
	// FaultJobPanic panics inside job execution, exercising the
	// scheduler's panic isolation.
	FaultJobPanic = "labd/job.panic"
	// FaultJobError fails job execution with a transient error.
	FaultJobError = "labd/job.error"
	// FaultJobLatency delays job execution by the rule's delay.
	FaultJobLatency = "labd/job.latency"
	// FaultCacheCorrupt flips a byte of an on-disk cache entry's payload
	// as it is read, before checksum verification.
	FaultCacheCorrupt = "labd/cache.corrupt"
	// FaultHTTPFlaky fails /v1/* requests other than /v1/state with 503
	// before they reach a handler, exercising client retry behaviour.
	FaultHTTPFlaky = "labd/http.flaky"
)

// errInvalid wraps spec validation failures (HTTP 400).
type errInvalid struct{ err error }

func (e errInvalid) Error() string { return e.err.Error() }

// Job is one submitted request's lifecycle record.
type Job struct {
	// ID is the daemon-local identity; Key the content address.
	ID  string
	Key string

	spec     JobSpec
	ctx      context.Context
	cancel   context.CancelFunc
	enqueued time.Time

	// fl is the execution flight this job leads (nil for cache hits and
	// coalesced followers).
	fl *flight

	// trace is the request's distributed trace (nil when tracing is
	// off); every method on it is nil-safe.
	trace *obs.Trace

	once sync.Once
	// done closes when the job reaches a terminal status.
	done chan struct{}

	mu        sync.Mutex
	status    string
	result    []byte
	err       error
	cacheHit  bool
	coalesced bool
	peerHit   bool
}

// Done returns the job's completion channel.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the cached result bytes and error after Done closes.
func (j *Job) Result() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Cancel abandons the job: a queued job never runs; a running job's
// simulation still completes in the background and populates the cache
// (deterministic work is never wasted), but this job reports failure.
func (j *Job) Cancel() { j.cancel() }

// Info snapshots the job's status view.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:        j.ID,
		Kind:      j.spec.Kind,
		Key:       j.Key,
		Status:    j.status,
		CacheHit:  j.cacheHit,
		Coalesced: j.coalesced,
		PeerHit:   j.peerHit,
	}
	if id := j.trace.ID(); !id.IsZero() {
		info.TraceID = id.String()
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	info.ResultBytes = len(j.result)
	return info
}

// Server is the daemon: scheduler, cache, registry and HTTP surface.
type Server struct {
	cfg     Config
	metrics *telemetry.Metrics
	cache   *resultCache
	chaos   *faultinject.Injector
	// pool executes leader jobs from one bounded FIFO queue: jobs age
	// out in arrival order, each on the first worker that comes free.
	pool *sweep.Pool

	// runSpec is the execution function; tests substitute it to model
	// slow or failing jobs without running simulations. The context
	// carries the job's deadline, propagated from the HTTP request; rec
	// is a per-job flight recorder attached only to traced simulations
	// (nil otherwise), whose GC spans the trace adopts.
	runSpec func(ctx context.Context, spec JobSpec, parallelism int, rec *telemetry.Recorder) (*JobResult, error)

	tracer *obs.Tracer
	slo    *obs.SLO
	peers  PeerFetcher

	started time.Time
	running atomic.Int64

	// drainFast mirrors draining for the lock-free readers: TryCacheHit
	// must not serve hits from a daemon that told its fleet it is leaving
	// (the router re-routes on ErrDraining; a hit here would race the arc
	// handoff), and /healthz and NodeState report it.
	drainFast atomic.Bool

	// Counter handles for the zero-allocation fast path (fastpath.go):
	// one atomic add each, no map lookup per hit.
	fastSubmitted *telemetry.CounterHandle
	fastHits      *telemetry.CounterHandle
	fastHitsMem   *telemetry.CounterHandle
	fastCompleted *telemetry.CounterHandle

	// memo answers a repeated submission body without decoding it
	// (memo.go); decodeReused counts its hits.
	memo         *decodeMemo
	decodeReused *telemetry.CounterHandle

	// latency streams finished jobs' end-to-end latency (seconds); a
	// traced job leaves its trace ID as its bucket's exemplar, so a
	// latency spike resolves to its trace. queueWait streams leader
	// jobs' queue wait.
	latency, queueWait *telemetry.Histogram

	mu       sync.Mutex
	draining bool
	nextID   int64
	jobs     map[string]*Job
	order    []string // registration order, for record eviction
}

// New builds a daemon and starts its worker pool. It fails only when
// Config.CacheDir is set and cannot be created.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	m := telemetry.NewMetrics()
	var disk *diskCache
	if cfg.CacheDir != "" {
		var err error
		if disk, err = newDiskCache(cfg.CacheDir, m, cfg.Chaos); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		cache:   newResultCache(cfg.CacheEntries, disk),
		chaos:   cfg.Chaos,
		pool: sweep.NewPool(sweep.PoolOptions{
			Workers:    cfg.Workers,
			QueueLimit: cfg.QueueDepth,
		}),
		runSpec: runSpec,
		memo:    newDecodeMemo(),
		tracer:  cfg.Tracer,
		slo:     cfg.SLO,
		peers:   cfg.Peers,
		started: time.Now(),
		jobs:    make(map[string]*Job),
	}
	s.fastSubmitted = m.CounterHandle("labd.jobs.submitted")
	s.fastHits = m.CounterHandle("labd.cache.hits")
	s.fastHitsMem = m.CounterHandle("labd.cache.hits.memory")
	s.fastCompleted = m.CounterHandle("labd.jobs.completed")
	s.decodeReused = m.CounterHandle("labd.submit.decode_reused")
	s.decodeReused.Add(0)
	// Pre-register the resilience counters so /metrics exposes them at
	// zero before (and whether or not) anything goes wrong.
	m.Add("labd.jobs.panicked", 0)
	m.Add("labd.cache.corruptions.detected", 0)
	m.Add("labd.http.injected.faults", 0)
	// Per-tier cache traffic, so /v1/state and fleet views can tell a
	// memory hit from a disk promotion from a peer fetch.
	m.Add("labd.cache.hits.memory", 0)
	if disk != nil {
		m.Add("labd.cache.hits.disk", 0)
	}
	if cfg.Peers != nil {
		m.Add("labd.cache.hits.peer", 0)
		m.Add("labd.cache.peer.misses", 0)
	}
	// Gauges are what a fleet sums; /metrics adds uptime, SLO and runtime.
	m.Gauge("labd.queue.depth", "Jobs waiting for a worker.",
		func() float64 { return float64(s.QueueDepth()) })
	m.Gauge("labd.jobs.running", "Jobs executing right now.",
		func() float64 { return float64(s.Running()) })
	m.Gauge("labd.cache.entries", "Results held in the LRU cache.",
		func() float64 { return float64(s.CacheLen()) })
	m.Gauge("labd.workers", "Size of the worker pool.",
		func() float64 { return float64(cfg.Workers) })
	if disk != nil {
		m.Gauge("labd.cache.disk.entries", "Verified result entries in the on-disk cache tier.",
			func() float64 { return float64(disk.entries()) })
	}
	m.Gauge("labd.traces.seen", "Traces ever filed by the daemon.",
		func() float64 { return float64(s.tracer.Store().Seen()) })
	m.Gauge("labd.traces.retained", "Traces currently retained for /debug/traces.",
		func() float64 { return float64(s.tracer.Store().Len()) })
	s.latency = m.Histogram("labd_job_latency_hist_seconds",
		"End-to-end job latency distribution (streaming histogram over the daemon's whole lifetime).")
	s.queueWait = m.Histogram("labd_queue_wait_seconds",
		"Time leader jobs spent queued before a worker claimed them.")
	return s, nil
}

// Submit validates, registers and resolves one job: from the cache, by
// coalescing onto an identical in-flight execution, or by enqueueing a
// fresh execution. The returned job may already be done (cache hit).
// Errors: errInvalid (bad spec), ErrQueueFull, ErrDraining.
func (s *Server) Submit(req SubmitRequest) (*Job, error) {
	return s.SubmitContext(context.Background(), req)
}

// SubmitContext is Submit with deadline propagation: when ctx carries a
// deadline tighter than the job's timeout, the deadline caps it, so an
// upstream budget (an HTTP request deadline, a campaign cutoff) flows
// through the scheduler into the simulation. Only the deadline
// propagates — cancelling ctx does not cancel the job, preserving the
// rule that a client walking away never wastes deterministic work.
func (s *Server) SubmitContext(ctx context.Context, req SubmitRequest) (*Job, error) {
	spec, err := req.Job.normalized()
	if err != nil {
		s.metrics.Add("labd.jobs.rejected", 1)
		return nil, errInvalid{err}
	}
	key, err := spec.key()
	if err != nil {
		// Marshal failure is a daemon bug, not a client one: surface it
		// as a plain error (HTTP 500) instead of panicking the daemon.
		s.metrics.Add("labd.jobs.rejected", 1)
		return nil, err
	}
	return s.submitPrepared(ctx, req, spec, key)
}

// SubmitPreKeyed is SubmitContext for callers that already hold the
// spec's content address — a fleet router that computed it for
// placement, or a batch handler whose fan-out keyed every job up front.
// The key must be the one SpecKeyInto derives for the same spec; the
// spec is still validated here.
func (s *Server) SubmitPreKeyed(ctx context.Context, req SubmitRequest, key string) (*Job, error) {
	spec, err := req.Job.normalized()
	if err != nil {
		s.metrics.Add("labd.jobs.rejected", 1)
		return nil, errInvalid{err}
	}
	return s.submitPrepared(ctx, req, spec, key)
}

// submitPrepared registers and resolves one normalized, keyed job — the
// shared tail of SubmitContext and SubmitPreKeyed.
func (s *Server) submitPrepared(ctx context.Context, req SubmitRequest, spec JobSpec, key string) (*Job, error) {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds * float64(time.Second))
	}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining < timeout {
			timeout = remaining
		}
	}

	jctx, cancel := context.WithTimeout(context.Background(), timeout)
	j := &Job{
		Key:      key,
		spec:     spec,
		ctx:      jctx,
		cancel:   cancel,
		enqueued: time.Now(),
		trace:    obs.FromContext(ctx),
		done:     make(chan struct{}),
		status:   StatusQueued,
	}
	// Attr-carrying trace calls are guarded: the variadic attr slice is
	// built at the call site before the nil-receiver check, so unguarded
	// calls would put allocations on the untraced hot path (bench-gated).
	if j.trace != nil {
		j.trace.Annotate(telemetry.Str("kind", spec.Kind), telemetry.Str("key", key))
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		s.metrics.Add("labd.jobs.rejected", 1)
		return nil, ErrDraining
	}
	s.nextID++
	j.ID = fmt.Sprintf("j%d", s.nextID)
	s.register(j)
	s.metrics.Add("labd.jobs.submitted", 1)

	lookup := j.trace.StartSpan("cache.lookup", "sched", 0)
	cached, tier, fl, leader := s.cache.beginTier(j.Key)
	if j.trace != nil {
		lookup.End(telemetry.Str("tier", tier))
		j.trace.Annotate(telemetry.Str("cache", tier))
	}
	switch {
	case cached != nil:
		j.cacheHit = true
		s.mu.Unlock()
		s.metrics.Add("labd.cache.hits", 1)
		if tier == "disk" {
			s.metrics.Add("labd.cache.hits.disk", 1)
		} else {
			s.metrics.Add("labd.cache.hits.memory", 1)
		}
		s.finish(j, cached, nil)
	case !leader:
		j.coalesced = true
		s.mu.Unlock()
		s.metrics.Add("labd.jobs.coalesced", 1)
		go func() {
			wait := j.trace.StartSpan("coalesce.wait", "sched", 0)
			select {
			case <-fl.done:
				wait.End()
				s.finish(j, fl.bytes, fl.err)
			case <-j.ctx.Done():
				wait.End()
				s.finish(j, nil, j.ctx.Err())
			}
		}()
	default:
		// Leader: the pool submission must happen under the submit lock
		// so a concurrent Drain cannot close the pool in between.
		j.fl = fl
		switch err := s.pool.SubmitWorker(func(worker int) { s.runJob(j, worker) }); err {
		case nil:
			s.mu.Unlock()
			s.metrics.Add("labd.cache.misses", 1)
			go s.watchLeader(j)
		default:
			s.mu.Unlock()
			if err == sweep.ErrPoolFull {
				err = ErrQueueFull
			} else {
				err = ErrDraining
			}
			s.metrics.Add("labd.jobs.rejected", 1)
			s.cache.complete(j.Key, fl, nil, err)
			s.finish(j, nil, err)
			return nil, err
		}
	}
	return j, nil
}

// watchLeader reacts to a leader job's cancellation or timeout. A job
// abandoned while still queued fails immediately and takes its flight
// (and any coalesced followers) with it; a job abandoned mid-run fails
// alone — the execution keeps the flight and populates the cache when it
// completes, so deterministic work is never wasted.
func (s *Server) watchLeader(j *Job) {
	select {
	case <-j.done:
	case <-j.ctx.Done():
		j.mu.Lock()
		wasQueued := j.status == StatusQueued
		if wasQueued {
			// Block the worker from claiming it later.
			j.status = StatusFailed
		}
		j.mu.Unlock()
		if wasQueued {
			s.cache.complete(j.Key, j.fl, nil,
				fmt.Errorf("labd: abandoned while queued: %w", j.ctx.Err()))
		}
		s.finish(j, nil, j.ctx.Err())
	}
}

// register adds a job record, evicting the oldest finished records past
// the bound. Caller holds s.mu.
func (s *Server) register(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > s.cfg.MaxJobRecords {
		victim, ok := s.jobs[s.order[0]]
		if ok {
			select {
			case <-victim.done:
			default:
				return // oldest record still live; keep everything
			}
			delete(s.jobs, victim.ID)
		}
		s.order = s.order[1:]
	}
}

// Job looks up a registered job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobInfos snapshots every registered job, oldest first.
func (s *Server) JobInfos() []JobInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobInfo, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.Info())
		}
	}
	return out
}

// runJob executes one dequeued leader job on the given pool worker.
func (s *Server) runJob(j *Job, worker int) {
	j.mu.Lock()
	if j.status != StatusQueued || j.ctx.Err() != nil {
		// Abandoned while queued; watchLeader fails the job and its
		// flight (it is guaranteed to fire once the context is done).
		j.mu.Unlock()
		return
	}
	j.status = StatusRunning
	j.mu.Unlock()
	// Queue wait is the enqueue-to-claim interval: what backpressure and
	// pool saturation cost this job before any work happened.
	claimed := time.Now()
	if j.trace != nil {
		j.trace.SpanBetween("queue.wait", "sched", 0, j.enqueued, claimed,
			telemetry.Num("worker", float64(worker)))
	}
	s.queueWait.Observe(claimed.Sub(j.enqueued).Seconds())
	s.running.Add(1)
	defer s.running.Add(-1)

	// Peer tier: before recomputing, a fleet node asks its peers for the
	// key's bytes (memory → disk → peer → recompute). A verified peer
	// hit completes the flight exactly as an execution would — coalesced
	// followers, disk write-through and byte-identity all behave the
	// same — it just costs one HTTP fetch instead of a simulation.
	if s.peers != nil {
		peerSpan := j.trace.StartSpan("cache.peer", "exec", 0)
		bytes, ok, probed := s.peers.Fetch(j.ctx, j.Key)
		if j.trace != nil {
			peerSpan.End(telemetry.Str("hit", peerTier(ok, probed)))
		}
		if ok {
			j.mu.Lock()
			j.peerHit = true
			j.mu.Unlock()
			s.metrics.Add("labd.cache.hits.peer", 1)
			s.cache.complete(j.Key, j.fl, bytes, nil)
			s.finish(j, bytes, nil)
			return
		}
		if probed {
			s.metrics.Add("labd.cache.peer.misses", 1)
		}
	}
	s.metrics.Add("labd.simulations", 1)

	type execOutcome struct {
		bytes []byte
		err   error
	}
	outcome := make(chan execOutcome, 1)
	go func() {
		bytes, err := s.execute(j, worker)
		// Complete the flight regardless of the leader's fate: followers
		// and future requests get the result even if the leader's
		// deadline passed mid-run.
		s.cache.complete(j.Key, j.fl, bytes, err)
		outcome <- execOutcome{bytes, err}
	}()
	select {
	case o := <-outcome:
		s.finish(j, o.bytes, o.err)
	case <-j.ctx.Done():
		s.finish(j, nil, j.ctx.Err())
	}
}

// execute runs one job's body with panic isolation: a panicking
// simulation (or an injected chaos panic) fails that job with the
// recovered value and its stack, while the worker, its queue and the
// daemon keep serving. Fault points run inside the recover scope so
// chaos exercises the same containment a real bug would.
func (s *Server) execute(j *Job, worker int) (bytes []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Add("labd.jobs.panicked", 1)
			bytes = nil
			err = fmt.Errorf("%w: %v\n%s", ErrJobPanicked, r, debug.Stack())
		}
	}()
	if d := s.chaos.Latency(FaultJobLatency); d > 0 {
		select {
		case <-time.After(d):
		case <-j.ctx.Done():
			return nil, j.ctx.Err()
		}
	}
	if err := s.chaos.Error(FaultJobError); err != nil {
		return nil, err
	}
	if s.chaos.Fire(FaultJobPanic) {
		panic("faultinject: injected panic at " + FaultJobPanic)
	}
	// A traced simulation gets its own flight recorder so the trace can
	// adopt the simulated JVM's GC pause spans. The recorder observes
	// without perturbing: results stay byte-identical with tracing on or
	// off (pinned by TestEndToEndTracing's byte-identity check).
	var rec *telemetry.Recorder
	var simSpan obs.ActiveSpan
	if j.trace != nil {
		if j.spec.Kind == KindSimulate {
			rec = telemetry.New(telemetry.Config{})
		}
		simSpan = j.trace.StartSpan("simulate", "exec", 0,
			telemetry.Num("worker", float64(worker)), telemetry.Str("kind", j.spec.Kind))
	}
	res, err := s.runSpec(j.ctx, j.spec, s.cfg.Parallelism, rec)
	simID := simSpan.End()
	if err != nil {
		return nil, err
	}
	importGCSpans(j.trace, simID, rec)
	encode := j.trace.StartSpan("encode", "exec", 0)
	bytes, err = marshalResult(res)
	if j.trace != nil {
		encode.End(telemetry.Num("bytes", float64(len(bytes))))
	}
	return bytes, err
}

// importGCSpans adopts a per-job flight recorder's stop-the-world pause
// spans (and their phase children) into the request trace as
// simulated-time children of the simulate span, on the trace's "sim.gc"
// track. The cap keeps a pause-storm simulation from flooding the trace;
// the trace's own MaxSpans bound backstops it.
const maxImportedGCSpans = 64

func importGCSpans(tr *obs.Trace, simID telemetry.SpanID, rec *telemetry.Recorder) {
	if tr == nil || rec == nil {
		return
	}
	imported := 0
	// Recorder span IDs are indices+1; scan once, mapping each adopted
	// pause's ID to its trace span ID so phase children nest under it.
	adopted := make(map[telemetry.SpanID]telemetry.SpanID)
	for i, sp := range rec.Spans() {
		pause := sp.Track == telemetry.TrackGC && sp.Parent == 0
		if pause {
			if imported >= maxImportedGCSpans {
				continue
			}
			imported++
			sp.Parent = simID
		} else if parent, ok := adopted[sp.Parent]; ok {
			sp.Parent = parent
		} else {
			continue
		}
		sp.Track = "sim.gc"
		id := tr.Add(sp)
		if pause {
			adopted[telemetry.SpanID(i+1)] = id
		}
	}
}

// finish moves a job to its terminal status exactly once.
func (s *Server) finish(j *Job, bytes []byte, err error) {
	j.once.Do(func() {
		j.mu.Lock()
		if err != nil {
			j.status = StatusFailed
			j.err = err
		} else {
			j.status = StatusDone
			j.result = bytes
		}
		j.mu.Unlock()
		if err != nil {
			s.metrics.Add("labd.jobs.failed", 1)
		} else {
			s.metrics.Add("labd.jobs.completed", 1)
		}
		// Job latency streams into the bounded latency histogram. A
		// traced job leaves its trace ID as the bucket's exemplar, so the
		// histogram's tail points at the trace that put a request there.
		now := time.Now()
		elapsed := now.Sub(j.enqueued)
		if id := j.trace.ID(); !id.IsZero() {
			s.latency.ObserveExemplar(elapsed.Seconds(), id.String(), float64(now.UnixNano())/1e9)
		} else {
			s.latency.Observe(elapsed.Seconds())
		}
		s.slo.Observe(elapsed, err != nil)
		j.trace.Finish(err)
		j.cancel()
		close(j.done)
	})
}

// peerTier renders a peer-fetch outcome for the trace span attribute:
// "skipped" when no peer was asked.
func peerTier(hit, probed bool) string {
	switch {
	case hit:
		return "hit"
	case probed:
		return "miss"
	default:
		return "skipped"
	}
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Server) QueueDepth() int { return s.pool.Pending() }

// Running returns the number of jobs executing right now.
func (s *Server) Running() int { return int(s.running.Load()) }

// CacheLen returns the number of cached results held in memory.
func (s *Server) CacheLen() int { return s.cache.len() }

// DiskCacheEntries returns the number of entries in the on-disk cache
// tier (zero when the daemon runs memory-only).
func (s *Server) DiskCacheEntries() int {
	if s.cache.disk == nil {
		return 0
	}
	return s.cache.disk.entries()
}

// CacheKeys returns the keys of the results the in-memory cache holds
// as this node's own (replicas excluded), most recently used first —
// the inventory a fleet router walks when a joiner warms its arc or a
// leaver hands its keys to successors.
func (s *Server) CacheKeys() []string { return s.cache.keys() }

// CachePeek returns a key's stored result bytes from the local tiers
// (memory, then verified disk) without electing a flight — the read
// side of the leave handoff, which ships stored bytes to successors.
func (s *Server) CachePeek(key string) ([]byte, bool) { return s.cache.peek(key) }

// WarmCache stores result bytes obtained from a peer (already
// SHA-verified by the caller) into the local cache tiers.
func (s *Server) WarmCache(key string, bytes []byte) {
	s.cache.seed(key, bytes)
	s.metrics.Add("labd.cache.warmed", 1)
}

// KeepReplica stores a copy of a result another fleet node owns
// (already SHA-verified by the caller) in memory only, and reports
// whether it was kept. A replica never evicts a result that has served
// a hit, is evicted before one, and stays out of CacheKeys, so a leave
// does not hand it off and a joiner does not pull it. Served by
// TryCacheHitKey like any memory entry.
func (s *Server) KeepReplica(key string, bytes []byte) bool {
	return s.cache.keep(key, bytes)
}

// Metrics exposes the daemon's metric set, which a fleet node's router
// and gossiper count into too.
func (s *Server) Metrics() *telemetry.Metrics { return s.metrics }

// Drain stops intake and waits for queued and running jobs to finish.
// When ctx expires first, outstanding jobs are canceled and Drain waits
// for the workers to observe that before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.drainFast.Store(true)
	s.pool.Close()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
