package labd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"jvmgc/internal/obs"
	"jvmgc/internal/telemetry"
)

// bodyPool recycles request-body buffers across submissions. Under
// steady load the pooled buffers converge on the fleet's typical spec
// size and stop growing, so reading a body costs no heap growth —
// where io.ReadAll paid a doubling growth sequence per request.
var bodyPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// readPooledBody reads a bounded request body into a pooled buffer and
// returns the pool token; the body is (*token)[:...]. Callers release
// with releaseBody once nothing references the bytes (json.Unmarshal
// copies what it keeps, so releasing after decode is safe).
func readPooledBody(w http.ResponseWriter, r *http.Request, limit int64) (*[]byte, error) {
	bp := bodyPool.Get().(*[]byte)
	b := (*bp)[:0]
	src := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := src.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = b[:0]
			bodyPool.Put(bp)
			return nil, err
		}
	}
	*bp = b
	return bp, nil
}

func releaseBody(bp *[]byte) {
	*bp = (*bp)[:0]
	bodyPool.Put(bp)
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs          submit a job (sync by default; async=202)
//	POST   /v1/jobs/batch    submit many jobs; NDJSON completion stream
//	GET    /v1/jobs          list job records
//	GET    /v1/jobs/{id}     job status
//	GET    /v1/jobs/{id}/result   result bytes (byte-identical to sync)
//	DELETE /v1/jobs/{id}     cancel a queued or running job
//	GET    /v1/cache/keys    in-memory cache keys, MRU first (warm-up)
//	GET    /v1/cache/{key}   cached result bytes (peer cache tier)
//	PUT    /v1/cache/{key}   accept handed-off bytes (verified digest)
//	GET    /v1/state         mergeable observability snapshot (fleet)
//	GET    /metrics          Prometheus text format
//	GET    /healthz          liveness + drain state + cache-tier counts
//
// With Config.NodeID set, every response carries X-Labd-Node so a
// client (or an operator's curl) can tell which fleet node answered.
//
// With fault injection armed (Config.Chaos), /v1/* requests pass the
// FaultHTTPFlaky point first: a firing hit is answered 503 with
// Retry-After before reaching a handler, modelling a flaky network or
// an overloaded front end. /healthz and /metrics stay exempt so
// orchestrators and scrapes observe the daemon truthfully during chaos.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/cache/keys", s.handleCacheKeys)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCachePeek)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	mux.HandleFunc("GET /v1/state", s.handleState)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /debug/traces/{id}/chrome", s.handleTraceChrome)
	mux.HandleFunc("GET /debug/slo", s.handleSLO)
	var handler http.Handler = mux
	if s.chaos.Enabled() {
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") && s.chaos.Fire(FaultHTTPFlaky) {
				s.rec.Add("labd.http.injected.faults", 1)
				w.Header().Set("Retry-After", "0")
				writeError(w, http.StatusServiceUnavailable,
					errors.New("faultinject: injected flaky response"))
				return
			}
			mux.ServeHTTP(w, r)
		})
	}
	if s.cfg.NodeID != "" {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("X-Labd-Node", s.cfg.NodeID)
			inner.ServeHTTP(w, r)
		})
	}
	return handler
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// handleSubmit accepts either the SubmitRequest envelope or a bare
// JobSpec body.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	bp, err := readPooledBody(w, r, 1<<20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer releaseBody(bp)
	body := *bp
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Job.Kind == "" {
		// Bare-spec convenience: {"kind": "simulate", ...}.
		var spec JobSpec
		if err := json.Unmarshal(body, &spec); err == nil && spec.Kind != "" {
			req.Job = spec
		}
	}

	// A routed fleet request carries the spec key its router computed
	// for placement, so this daemon never re-derives it. The hint is
	// honored only together with the routed marker (see HeaderSpecKey).
	hint := ""
	if r.Header.Get(HeaderRouted) != "" {
		hint = r.Header.Get(HeaderSpecKey)
	}
	// The forwarding node keeps a replica of a hit: give it the digest.
	replica := r.Header.Get(HeaderReplica) != ""

	// Zero-allocation fast path (fastpath.go): a synchronous, untraced
	// submission whose result sits in the memory tier is answered from
	// the stored bytes with no job machinery. Anything else — async,
	// traced, draining, invalid, or simply not cached — falls through to
	// the scheduler below, which owns all error reporting.
	if !req.Async {
		if hint != "" {
			if bytes, ok := s.TryCacheHitKey(hint); ok {
				s.writeCachedResult(w, hint, bytes, replica)
				return
			}
		} else if bytes, hexKey, ok := s.TryCacheHit(req.Job); ok {
			s.writeCachedResult(w, string(hexKey[:]), bytes, replica)
			return
		}
	}

	// A traced daemon starts (or, given an inbound traceparent, adopts)
	// a trace for the request; the trace rides the context into the
	// scheduler and finishes when the job does. Submissions rejected
	// before a job exists finish it here — Finish is idempotent, so the
	// two paths cannot double-file.
	ctx := r.Context()
	var tr *obs.Trace
	if s.tracer.Enabled() {
		tid, rsid, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
		tr = s.tracer.StartTrace("labd.request", tid, rsid)
		tr.Annotate(obs.Str("method", r.Method), obs.Str("path", r.URL.Path))
		ctx = obs.NewContext(ctx, tr)
		w.Header().Set("X-Labd-Trace", tr.ID().String())
	}

	// The request context's deadline (if the client set one) caps the
	// job's timeout — deadline propagation from HTTP edge to simulation.
	var j *Job
	if hint != "" {
		j, err = s.SubmitPreKeyed(ctx, req, hint)
	} else {
		j, err = s.SubmitContext(ctx, req)
	}
	if err != nil {
		tr.Finish(err)
		var inv errInvalid
		switch {
		case errors.As(err, &inv):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			// A draining daemon is mid-rollover; tell well-behaved
			// clients when to try the (re)started instance.
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}

	w.Header().Set("X-Labd-Job", j.ID)
	w.Header().Set("X-Labd-Key", j.Key)
	if req.Async {
		w.Header().Set("X-Labd-Cache", cacheDisposition(j))
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusAccepted, j.Info())
		return
	}

	select {
	case <-j.Done():
	case <-r.Context().Done():
		// Client went away; the job continues and lands in the cache.
		return
	}
	// Disposition is read after completion: a peer-tier hit is only
	// discovered once the job reaches a worker, so reading it at submit
	// time would report "miss" for peer-served results.
	disposition := cacheDisposition(j)
	w.Header().Set("X-Labd-Cache", disposition)
	if replica && disposition == "hit" {
		if bytes, err := j.Result(); err == nil {
			w.Header().Set("X-Labd-Sha256", Digest(bytes))
		}
	}
	s.respondResult(w, j)
}

// Digest is the hex SHA-256 of b: the form a spec key takes, and the
// X-Labd-Sha256 value a fleet node checks before it trusts result bytes
// that crossed the network.
func Digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func cacheDisposition(j *Job) string {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.cacheHit:
		return "hit"
	case j.coalesced:
		return "coalesced"
	case j.peerHit:
		return "peer"
	default:
		return "miss"
	}
}

// respondResult writes a finished job's outcome: the cached result bytes
// verbatim on success (so hits, coalesced waits and cold runs are
// byte-identical), an error envelope otherwise. Content-Length is set
// explicitly so large results are not chunk-encoded per response.
func (s *Server) respondResult(w http.ResponseWriter, j *Job) {
	bytes, err := j.Result()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		} else if errors.Is(err, context.Canceled) {
			status = http.StatusConflict
		} else if errors.Is(err, ErrQueueFull) {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(bytes)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bytes)
}

// writeCachedResult answers a fast-path cache hit: the stored bytes
// verbatim with explicit Content-Length and the same key/disposition
// headers a scheduled hit carries, plus the digest when the forwarding
// node keeps a replica. No X-Labd-Job — the fast path creates no job
// record (see fastpath.go).
func (s *Server) writeCachedResult(w http.ResponseWriter, key string, bytes []byte, digest bool) {
	if digest {
		w.Header().Set("X-Labd-Sha256", Digest(bytes))
	}
	w.Header().Set("X-Labd-Key", key)
	w.Header().Set("X-Labd-Cache", "hit")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(bytes)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bytes)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobInfo `json:"jobs"`
	}{s.JobInfos()})
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("labd: no such job"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, j.Info())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFromPath(w, r)
	if !ok {
		return
	}
	select {
	case <-j.Done():
		s.respondResult(w, j)
	default:
		writeError(w, http.StatusConflict, errors.New("labd: job not finished; poll GET /v1/jobs/"+j.ID))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		j.Cancel()
		writeJSON(w, http.StatusOK, j.Info())
	}
}

// handleMetrics serves the daemon's observability snapshot: recorder
// counters (jobs, cache, simulations), live scheduler gauges, the
// job-latency summary and histograms, SLO burn rates and the Go
// runtime's own GC vitals, all through telemetry's Prometheus exporter.
//
// The format is negotiated: the classic text format (version 0.0.4) by
// default, OpenMetrics when the Accept header asks for
// application/openmetrics-text — exemplars (the trace IDs attached to
// latency-histogram buckets) are only legal in OpenMetrics, so only that
// form carries them.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	openMetrics := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	snap := telemetry.PromSnapshot{OpenMetrics: openMetrics}
	snap.AddRecorderCounters(s.rec)
	snap.Gauge("labd.queue.depth", "Jobs waiting for a worker.", float64(s.QueueDepth()))
	snap.Gauge("labd.jobs.running", "Jobs executing right now.", float64(s.Running()))
	snap.Gauge("labd.cache.entries", "Results held in the LRU cache.", float64(s.CacheLen()))
	snap.Gauge("labd.workers", "Size of the worker pool.", float64(s.cfg.Workers))
	snap.Gauge("labd.uptime.seconds", "Seconds since the daemon started.",
		time.Since(s.started).Seconds())
	if s.cache.disk != nil {
		snap.Gauge("labd.cache.disk.entries",
			"Verified result entries in the on-disk cache tier.",
			float64(s.DiskCacheEntries()))
	}
	if s.chaos.Enabled() {
		snap.Counter("labd.faults.injected",
			"Faults fired by the chaos injector across all sites.",
			s.chaos.Total())
	}
	if store := s.tracer.Store(); store != nil {
		snap.Gauge("labd.traces.seen", "Traces ever filed by the daemon.", float64(store.Seen()))
		snap.Gauge("labd.traces.retained", "Traces currently retained for /debug/traces.",
			float64(store.Len()))
	}
	s.addSLOMetrics(&snap)
	obs.ReadRuntimeSample().AddTo(&snap)

	var latencies []float64
	for _, span := range s.rec.TrackSpans("labd") {
		latencies = append(latencies, span.Duration.Seconds())
	}
	snap.Summary("labd_job_latency_seconds",
		"End-to-end job latency (enqueue to completion), including cache hits.",
		latencies)
	s.histMu.Lock()
	snap.HistogramExemplars("labd_job_latency_hist_seconds",
		"End-to-end job latency distribution (streaming histogram over the daemon's whole lifetime).",
		s.latHist, s.latEx)
	snap.Histogram("labd_queue_wait_seconds",
		"Time leader jobs spent queued before a worker claimed them.",
		s.queueHist)
	s.histMu.Unlock()

	if openMetrics {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	_ = snap.Write(w)
}

// addSLOMetrics renders the burn-rate monitor as gauges: one labeled
// row per (objective, window) pair plus the lifetime counts.
func (s *Server) addSLOMetrics(snap *telemetry.PromSnapshot) {
	if !s.slo.Enabled() {
		return
	}
	st := s.slo.Status()
	var lat, errs []telemetry.LabeledValue
	for _, win := range st.Windows {
		lat = append(lat, telemetry.LabeledValue{
			Labels: []telemetry.Label{{Name: "window", Value: win.Window}},
			Value:  win.LatencyBurnRate,
		})
		errs = append(errs, telemetry.LabeledValue{
			Labels: []telemetry.Label{{Name: "window", Value: win.Window}},
			Value:  win.ErrorBurnRate,
		})
	}
	snap.LabeledGauge("labd.slo.latency.burn.rate",
		"Latency error-budget burn multiplier per window (1.0 = budget exactly exhausted).", lat)
	snap.LabeledGauge("labd.slo.error.burn.rate",
		"Error-budget burn multiplier per window.", errs)
	snap.Gauge("labd.slo.requests", "Requests observed by the SLO monitor.", float64(st.Total))
	snap.Gauge("labd.slo.slow.requests", "Requests over the latency threshold.", float64(st.Slow))
	snap.Gauge("labd.slo.failed.requests", "Failed requests.", float64(st.Errors))
	severity := map[string]float64{"idle": 0, "ok": 0, "watch": 1, "warn": 2, "page": 3}[st.Severity]
	snap.Gauge("labd.slo.severity",
		"Multiwindow alert severity: 0 ok/idle, 1 watch, 2 warn, 3 page.", severity)
}

// handleTraces lists retained traces: the recent ring, the slowest-K
// set, and filing totals.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	store := s.tracer.Store()
	if store == nil {
		writeError(w, http.StatusNotFound, errors.New("labd: tracing disabled"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Seen     int64              `json:"seen"`
		Retained int                `json:"retained"`
		Recent   []obs.TraceSummary `json:"recent"`
		Slowest  []obs.TraceSummary `json:"slowest"`
	}{store.Seen(), store.Len(), store.Recent(), store.Slowest()})
}

// traceFromPath resolves {id} against the trace store.
func (s *Server) traceFromPath(w http.ResponseWriter, r *http.Request) (*obs.TraceData, bool) {
	store := s.tracer.Store()
	if store == nil {
		writeError(w, http.StatusNotFound, errors.New("labd: tracing disabled"))
		return nil, false
	}
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	td, ok := store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("labd: no such trace (evicted or never filed)"))
		return nil, false
	}
	return td, true
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if td, ok := s.traceFromPath(w, r); ok {
		writeJSON(w, http.StatusOK, struct {
			ID string `json:"id"`
			*obs.TraceData
		}{td.ID.String(), td})
	}
}

// handleTraceChrome exports one trace as Chrome trace-event JSON for
// Perfetto (ui.perfetto.dev → open trace file).
func (s *Server) handleTraceChrome(w http.ResponseWriter, r *http.Request) {
	if td, ok := s.traceFromPath(w, r); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			`attachment; filename="labd-trace-`+td.ID.String()+`.json"`)
		_ = obs.WriteChromeTrace(w, td)
	}
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if !s.slo.Enabled() {
		writeError(w, http.StatusNotFound, errors.New("labd: SLO monitoring disabled"))
		return
	}
	writeJSON(w, http.StatusOK, s.slo.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if h.Status == "draining" {
		// Readiness flips during drain so load balancers (and fleet
		// routers probing membership) stop routing.
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// handleCachePeek serves a cached result verbatim — the read side of the
// fleet peer cache tier. Local tiers only (memory, disk): a miss is 404,
// never a recomputation, so a peer probe can't consume this node's
// workers. X-Labd-Sha256 carries the body's digest; the fetching peer
// verifies it before trusting bytes that crossed the network.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	bytes, ok := s.cache.peek(r.PathValue("key"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("labd: key not cached here"))
		return
	}
	w.Header().Set("X-Labd-Sha256", Digest(bytes))
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(bytes)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bytes)
}

// handleCacheKeys lists the keys this node holds in memory as its own
// results (replicas excluded), MRU-first — the inventory a joiner (or
// a router filtering by ring arc) walks to warm a cache before taking
// placement.
func (s *Server) handleCacheKeys(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Keys []string `json:"keys"`
	}{s.CacheKeys()})
}

// handleCachePut accepts result bytes pushed by a peer — the write side
// of the graceful-leave handoff, where a departing node hands its arc's
// hot keys to their successors. The mandatory X-Labd-Sha256 digest is
// verified before the bytes are trusted, mirroring the read side's
// verified fetch.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	want := r.Header.Get("X-Labd-Sha256")
	if want == "" {
		writeError(w, http.StatusBadRequest,
			errors.New("labd: cache put requires an X-Labd-Sha256 digest"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if Digest(body) != want {
		s.rec.Add("labd.cache.corruptions.detected", 1)
		writeError(w, http.StatusBadRequest,
			errors.New("labd: cache put digest mismatch; bytes rejected"))
		return
	}
	s.cache.seed(r.PathValue("key"), body)
	s.rec.Add("labd.cache.handoff.received", 1)
	w.WriteHeader(http.StatusNoContent)
}

// handleState serves the mergeable observability snapshot the fleet
// aggregator folds across nodes (see NodeState).
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.NodeState())
}
