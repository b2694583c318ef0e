package labd

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
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

// Size bounds of what crosses the HTTP API: a POST /v1/jobs body, a
// POST /v1/jobs/batch body, and one result document moving between
// fleet nodes (a peer fetch, a handoff PUT, a relayed hit kept as a
// replica).
const (
	MaxSubmitBody  = 1 << 20
	MaxBatchBody   = 8 << 20
	MaxResultBytes = 32 << 20
)

// ReadPooledBody reads a request body of at most limit bytes into a
// pooled buffer and returns the pool token; the body is (*token)[:...].
// Callers release with ReleaseBody once nothing references the bytes
// (json.Unmarshal copies what it keeps, so releasing after decode is
// safe). A fleet router reads the submissions and batches it routes
// with it too.
func ReadPooledBody(w http.ResponseWriter, r *http.Request, limit int64) (*[]byte, error) {
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

// ReleaseBody returns a ReadPooledBody buffer to the pool.
func ReleaseBody(bp *[]byte) {
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
//	GET    /healthz          liveness: {"status":"ok"}, or 503 "draining"
//
// With Config.NodeID set, every response carries X-Labd-Node so a
// client (or an operator's curl) can tell which fleet node answered.
//
// With fault injection armed (Config.Chaos), /v1/* requests pass the
// FaultHTTPFlaky point first: a firing hit is answered 503 with
// Retry-After before reaching a handler, modelling a flaky network or
// an overloaded front end. /healthz, /metrics and /v1/state (the
// fleet's scrape) stay exempt so orchestrators and scrapes observe the
// daemon truthfully during chaos.
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
			if strings.HasPrefix(r.URL.Path, "/v1/") && r.URL.Path != "/v1/state" && s.flaky(w) {
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

// WriteJSON answers with status and v as one line of JSON, HTML
// characters unescaped. The daemon and a fleet node answer their JSON
// endpoints through it, so the two write the same bytes.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// WriteError answers with status and the error body {"error": "..."}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorBody{Error: err.Error()})
}

// flaky runs the FaultHTTPFlaky point for one /v1/* request. A firing
// answers it 503 with Retry-After and reports true.
func (s *Server) flaky(w http.ResponseWriter) bool {
	if !s.chaos.Fire(FaultHTTPFlaky) {
		return false
	}
	s.metrics.Add("labd.http.injected.faults", 1)
	w.Header().Set("Retry-After", "0")
	WriteError(w, http.StatusServiceUnavailable, errors.New("faultinject: injected flaky response"))
	return true
}

// DecodeSubmit parses a POST /v1/jobs body: the SubmitRequest envelope,
// or a bare JobSpec ({"kind": "simulate", ...}). It is the only parser
// of a submission: the daemon's handler and a fleet node's router reach
// it through Server.DecodeKeyed, whose memo answers a repeated body
// without it, and a standalone router calls it directly.
func DecodeSubmit(body []byte) (SubmitRequest, error) {
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return req, err
	}
	if req.Job.Kind == "" {
		var spec JobSpec
		if err := json.Unmarshal(body, &spec); err == nil && spec.Kind != "" {
			req.Job = spec
		}
	}
	return req, nil
}

// handleSubmit serves POST /v1/jobs behind Handler's edge.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	bp, err := ReadPooledBody(w, r, MaxSubmitBody)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	// A routed fleet request carries the spec key its router computed
	// for placement, so this daemon never re-derives it. The key is
	// honored only together with the routed marker (see HeaderSpecKey).
	routedKey := ""
	if r.Header.Get(HeaderRouted) != "" {
		routedKey = r.Header.Get(HeaderSpecKey)
	}
	req, key, err := s.decodeKeyed(*bp, routedKey)
	ReleaseBody(bp)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.serveSubmit(w, r, req, key)
}

// ServeSubmit answers one submission that the caller read and decoded
// (DecodeKeyed) itself: a fleet router serving a job its node owns. It
// passes the edge that Handler puts before POST /v1/jobs, X-Labd-Node
// and the FaultHTTPFlaky point, so the answer is the one the daemon's
// own handler would write. key is the spec's content address
// (DecodeKeyed derives both), or "" for a spec that has none, which the
// scheduler rejects.
func (s *Server) ServeSubmit(w http.ResponseWriter, r *http.Request, req SubmitRequest, key string) {
	if s.cfg.NodeID != "" {
		w.Header().Set("X-Labd-Node", s.cfg.NodeID)
	}
	if s.flaky(w) {
		return
	}
	s.serveSubmit(w, r, req, key)
}

// serveSubmit answers one decoded submission; key is its content
// address, or "" to leave it to the scheduler.
func (s *Server) serveSubmit(w http.ResponseWriter, r *http.Request, req SubmitRequest, key string) {
	// The forwarding node keeps a replica of a hit: give it the digest.
	replica := r.Header.Get(HeaderReplica) != ""

	// Zero-allocation fast path (fastpath.go): a synchronous, untraced
	// submission whose result sits in the memory tier is answered from
	// the stored bytes with no job machinery. Anything else — async,
	// traced, draining, invalid, or simply not cached — falls through to
	// the scheduler below, which owns all error reporting.
	if !req.Async && key != "" {
		if bytes, ok := s.TryCacheHitKey(key); ok {
			s.writeCachedResult(w, key, bytes, replica)
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
		tr.Annotate(telemetry.Str("method", r.Method), telemetry.Str("path", r.URL.Path))
		ctx = obs.NewContext(ctx, tr)
		w.Header().Set("X-Labd-Trace", tr.ID().String())
	}

	// The request context's deadline (if the client set one) caps the
	// job's timeout — deadline propagation from HTTP edge to simulation.
	var j *Job
	var err error
	if key != "" {
		j, err = s.SubmitPreKeyed(ctx, req, key)
	} else {
		j, err = s.SubmitContext(ctx, req)
	}
	if err != nil {
		tr.Finish(err)
		var inv errInvalid
		switch {
		case errors.As(err, &inv):
			WriteError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			WriteError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			// A draining daemon is mid-rollover; tell well-behaved
			// clients when to try the (re)started instance.
			w.Header().Set("Retry-After", "5")
			WriteError(w, http.StatusServiceUnavailable, err)
		default:
			WriteError(w, http.StatusInternalServerError, err)
		}
		return
	}

	w.Header().Set("X-Labd-Job", j.ID)
	w.Header().Set("X-Labd-Key", j.Key)
	if req.Async {
		w.Header().Set("X-Labd-Cache", cacheDisposition(j))
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		WriteJSON(w, http.StatusAccepted, j.Info())
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
		WriteError(w, status, err)
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
	WriteJSON(w, http.StatusOK, struct {
		Jobs []JobInfo `json:"jobs"`
	}{s.JobInfos()})
}

func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("labd: no such job"))
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Info())
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
		WriteError(w, http.StatusConflict, errors.New("labd: job not finished; poll GET /v1/jobs/"+j.ID))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.jobFromPath(w, r); ok {
		j.Cancel()
		WriteJSON(w, http.StatusOK, j.Info())
	}
}

// handleMetrics serves the daemon's metric set (with a fleet node's
// router and gossip counters) plus what only this process reports:
// uptime, chaos faults, SLO burn rates and the Go runtime's GC vitals.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap telemetry.PromSnapshot
	s.metrics.AddTo(&snap)
	snap.Gauge("labd.uptime.seconds", "Seconds since the daemon started.",
		time.Since(s.started).Seconds())
	if s.chaos.Enabled() {
		snap.Counter("labd.faults.injected",
			"Faults fired by the chaos injector across all sites.",
			s.chaos.Total())
	}
	s.addSLOMetrics(&snap)
	obs.ReadRuntimeSample().AddTo(&snap)
	WriteMetrics(w, r, &snap)
}

// WriteMetrics answers a /metrics request with snap: OpenMetrics, the
// only form that carries exemplars, when the Accept header asks for it,
// and the classic text format (version 0.0.4) otherwise.
func WriteMetrics(w http.ResponseWriter, r *http.Request, snap *telemetry.PromSnapshot) {
	snap.OpenMetrics = strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	ct := "text/plain; version=0.0.4; charset=utf-8"
	if snap.OpenMetrics {
		ct = "application/openmetrics-text; version=1.0.0; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	_ = snap.Write(w) // a failed write means the scraper went away
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
		WriteError(w, http.StatusNotFound, errors.New("labd: tracing disabled"))
		return
	}
	WriteJSON(w, http.StatusOK, struct {
		Seen     int64              `json:"seen"`
		Retained int                `json:"retained"`
		Recent   []obs.TraceSummary `json:"recent"`
		Slowest  []obs.TraceSummary `json:"slowest"`
	}{store.Seen(), store.Len(), store.Recent(math.MaxInt), store.Slowest()})
}

// traceFromPath resolves {id} against the trace store.
func (s *Server) traceFromPath(w http.ResponseWriter, r *http.Request) (*obs.TraceData, bool) {
	store := s.tracer.Store()
	if store == nil {
		WriteError(w, http.StatusNotFound, errors.New("labd: tracing disabled"))
		return nil, false
	}
	id, err := obs.ParseTraceID(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return nil, false
	}
	td, ok := store.Get(id)
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("labd: no such trace (evicted or never filed)"))
		return nil, false
	}
	return td, true
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if td, ok := s.traceFromPath(w, r); ok {
		WriteJSON(w, http.StatusOK, struct {
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
		WriteError(w, http.StatusNotFound, errors.New("labd: SLO monitoring disabled"))
		return
	}
	WriteJSON(w, http.StatusOK, s.slo.Status())
}

// handleHealthz answers liveness only; the daemon's reading is
// /v1/state.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := http.StatusOK, "ok"
	if s.drainFast.Load() {
		// Readiness flips during drain so load balancers stop routing.
		status, body = http.StatusServiceUnavailable, "draining"
	}
	WriteJSON(w, status, struct {
		Status string `json:"status"`
	}{body})
}

// handleCachePeek serves a cached result verbatim — the read side of the
// fleet peer cache tier. Local tiers only (memory, disk): a miss is 404,
// never a recomputation, so a peer probe can't consume this node's
// workers. X-Labd-Sha256 carries the body's digest; the fetching peer
// verifies it before trusting bytes that crossed the network.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	bytes, ok := s.cache.peek(r.PathValue("key"))
	if !ok {
		WriteError(w, http.StatusNotFound, errors.New("labd: key not cached here"))
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
	WriteJSON(w, http.StatusOK, struct {
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
		WriteError(w, http.StatusBadRequest,
			errors.New("labd: cache put requires an X-Labd-Sha256 digest"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxResultBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if Digest(body) != want {
		s.metrics.Add("labd.cache.corruptions.detected", 1)
		WriteError(w, http.StatusBadRequest,
			errors.New("labd: cache put digest mismatch; bytes rejected"))
		return
	}
	s.cache.seed(r.PathValue("key"), body)
	s.metrics.Add("labd.cache.handoff.received", 1)
	w.WriteHeader(http.StatusNoContent)
}

// handleState serves the mergeable observability snapshot the fleet
// aggregator folds across nodes (see NodeState).
func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.NodeState())
}
