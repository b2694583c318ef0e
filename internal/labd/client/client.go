// Package client is the self-healing Go client for the labd job daemon:
// submit simulation jobs, poll async jobs, and read the daemon's health
// and metrics. It speaks the wire types of internal/labd.
//
// The client survives the failures a long experiment campaign meets in
// practice — transient 5xx/429 responses, connection resets, timeouts,
// a daemon mid-restart — without corrupting a campaign:
//
//   - Retries with exponential backoff and full jitter, honoring
//     Retry-After when the daemon names its own recovery time.
//   - Only idempotent requests are retried. GETs are idempotent by HTTP
//     semantics; POST /v1/jobs is idempotent by construction, because a
//     job's identity is the content address of its normalized spec —
//     resubmitting the same spec lands on the same cache entry and
//     yields byte-identical results. DELETE (cancel) is never retried
//     blindly: repeating it could cancel a job a concurrent submitter
//     just coalesced onto.
//   - A three-state circuit breaker (closed → open → half-open) stops
//     hammering a daemon that is down: after Breaker.Threshold
//     consecutive transport-level failures the breaker opens and calls
//     fail fast; after Breaker.Cooldown a single probe is let through
//     and its outcome closes or re-opens the breaker.
//
// The zero-value policies give sane defaults; Stats reports what the
// resilience layer actually did.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
)

// RetryPolicy shapes the retry loop for idempotent requests.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (default 4; 1 disables
	// retries).
	MaxAttempts int
	// BaseDelay is the backoff unit: attempt n waits a uniformly random
	// duration in [0, min(MaxDelay, BaseDelay·2ⁿ⁻¹)) — "full jitter",
	// which decorrelates a fleet of clients retrying into a shared
	// daemon. Default 50 ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff envelope (default 2 s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// BreakerPolicy shapes the circuit breaker.
type BreakerPolicy struct {
	// Threshold is the number of consecutive failures that opens the
	// breaker (default 5).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5 s).
	Cooldown time.Duration
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 5 * time.Second
	}
	return p
}

// ErrBreakerOpen reports a call failed fast because the circuit breaker
// is open: the daemon has been failing consecutively and the cooldown
// has not elapsed.
var ErrBreakerOpen = errors.New("labd client: circuit breaker open")

// Stats counts what the resilience layer did (snapshot via Stats).
type Stats struct {
	// Attempts is the number of HTTP requests actually sent.
	Attempts int64
	// Retries is the number of re-sent requests (attempts beyond the
	// first, per call).
	Retries int64
	// RetryAfterHonored counts backoffs that used a server-provided
	// Retry-After instead of the jittered exponential schedule.
	RetryAfterHonored int64
	// BreakerOpens counts closed/half-open → open transitions.
	BreakerOpens int64
	// BreakerFastFails counts calls rejected without a request because
	// the breaker was open.
	BreakerFastFails int64
	// NodeAttempts counts answered requests per fleet node, keyed by the
	// X-Labd-Node a response carried. Against a standalone daemon (no
	// NodeID) the map stays empty; against a fleet it shows which nodes
	// answered this client: the key's owner, or the entry node itself
	// when it served a cache hit from a read replica.
	NodeAttempts map[string]int64
}

// Client talks to one labd instance. It is safe for concurrent use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry shapes the retry loop; the zero value selects defaults.
	Retry RetryPolicy
	// Breaker shapes the circuit breaker; the zero value selects
	// defaults.
	Breaker BreakerPolicy
	// Trace enables distributed tracing: each submission carries a W3C
	// traceparent header minted by the client, so the daemon's trace
	// adopts the client's trace ID and the request is followable
	// end-to-end from either side.
	Trace bool
	// TraceSeed fixes the trace-ID stream for reproducible tests
	// (0 = derived from the clock).
	TraceSeed uint64

	mu       sync.Mutex
	state    breakerState
	fails    int // consecutive failures
	openedAt time.Time
	probing  bool
	stats    Stats
	ids      *obs.IDGen // lazy; guarded by mu
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// sharedTransport is the package-wide default transport: one connection
// pool shared by every Client that doesn't bring its own HTTPClient.
// Batch shard goroutines and load-generator workers all multiplex over
// it, so keep-alive connections are reused across calls instead of each
// burst paying fresh TCP handshakes (http.DefaultClient would share too,
// but with pool limits — MaxIdleConnsPerHost 2 — that force most
// concurrent connections to close on release under fan-out load).
var sharedTransport = &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   30 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        512,
	MaxIdleConnsPerHost: 128,
	IdleConnTimeout:     90 * time.Second,
}

var sharedHTTPClient = &http.Client{Transport: sharedTransport}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return sharedHTTPClient
}

// Stats snapshots the resilience counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	if c.stats.NodeAttempts != nil {
		st.NodeAttempts = make(map[string]int64, len(c.stats.NodeAttempts))
		for node, n := range c.stats.NodeAttempts {
			st.NodeAttempts[node] = n
		}
	}
	return st
}

// recordNode attributes one answered request to the fleet node named in
// its response headers (no-op for standalone daemons).
func (c *Client) recordNode(resp *http.Response) {
	node := resp.Header.Get("X-Labd-Node")
	if node == "" {
		return
	}
	c.mu.Lock()
	if c.stats.NodeAttempts == nil {
		c.stats.NodeAttempts = make(map[string]int64)
	}
	c.stats.NodeAttempts[node]++
	c.mu.Unlock()
}

// mintTraceparent returns a fresh traceparent header value and the
// trace ID it carries.
func (c *Client) mintTraceparent() (header, traceID string) {
	c.mu.Lock()
	if c.ids == nil {
		c.ids = obs.NewIDGen(c.TraceSeed)
	}
	g := c.ids
	c.mu.Unlock()
	tid, sid := g.TraceID(), g.SpanID()
	return obs.Traceparent(tid, sid), tid.String()
}

// APIError is a non-2xx daemon response.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("labd: HTTP %d: %s", e.StatusCode, e.Message)
}

// breakerAllow gates one attempt: nil to proceed, ErrBreakerOpen to fail
// fast. An open breaker past its cooldown moves to half-open and admits
// exactly one probe at a time.
func (c *Client) breakerAllow() error {
	b := c.Breaker.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	switch c.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if time.Since(c.openedAt) >= b.Cooldown {
			c.state = breakerHalfOpen
			c.probing = true
			return nil
		}
	case breakerHalfOpen:
		if !c.probing {
			c.probing = true
			return nil
		}
	}
	c.stats.BreakerFastFails++
	return ErrBreakerOpen
}

// breakerRecord feeds one attempt's health outcome back: any response
// from the daemon (even a 4xx rejection) proves it alive and closes the
// breaker; transport errors and 5xx/429 count toward opening it.
func (c *Client) breakerRecord(healthy bool) {
	b := c.Breaker.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probing = false
	if healthy {
		c.state = breakerClosed
		c.fails = 0
		return
	}
	c.fails++
	if c.state == breakerHalfOpen || (c.state == breakerClosed && c.fails >= b.Threshold) {
		c.state = breakerOpen
		c.openedAt = time.Now()
		c.stats.BreakerOpens++
	}
}

// retryableStatus reports response codes worth retrying: throttling and
// server-side failures that a later attempt can heal.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusInternalServerError,
		http.StatusBadGateway, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// idempotent reports whether a request is safe to retry blindly. POST
// is only idempotent on the submit endpoint, where the job's identity is
// its spec's content address.
func idempotent(req *http.Request) bool {
	switch req.Method {
	case http.MethodGet, http.MethodHead:
		return true
	case http.MethodPost:
		// /v1/jobs is idempotent by content address; /v1/fleet/leave
		// because leaving twice is the same departure (the membership
		// delta and the drain are both idempotent).
		return strings.HasSuffix(req.URL.Path, "/v1/jobs") ||
			strings.HasSuffix(req.URL.Path, "/v1/fleet/leave")
	}
	return false
}

// retryAfter extracts a server-directed delay (seconds form only).
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// backoff returns the full-jitter delay before the given retry (1-based).
func (p RetryPolicy) backoff(retry int) time.Duration {
	envelope := p.BaseDelay << (retry - 1)
	if envelope > p.MaxDelay || envelope <= 0 {
		envelope = p.MaxDelay
	}
	return time.Duration(rand.Int63n(int64(envelope) + 1))
}

// do sends a request, reads the body, and demands the given status —
// retrying idempotent requests through the breaker per the client's
// policies. Non-retryable failures (4xx rejections, malformed-response
// errors) return immediately.
func (c *Client) do(req *http.Request, want int) ([]byte, *http.Response, error) {
	policy := c.Retry.withDefaults()
	attempts := policy.MaxAttempts
	if !idempotent(req) {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			delay, honored := c.nextDelay(policy, attempt-1, lastErr)
			c.mu.Lock()
			c.stats.Retries++
			if honored {
				c.stats.RetryAfterHonored++
			}
			c.mu.Unlock()
			select {
			case <-req.Context().Done():
				return nil, nil, req.Context().Err()
			case <-time.After(delay):
			}
		}
		if err := c.breakerAllow(); err != nil {
			return nil, nil, err
		}
		body, resp, err, final := c.attempt(req, want)
		if final {
			return body, resp, err
		}
		lastErr = err
	}
	return nil, nil, fmt.Errorf("labd client: giving up after %d attempts: %w", attempts, lastErr)
}

// attempt sends the request once. final=false marks a retryable failure.
func (c *Client) attempt(req *http.Request, want int) (body []byte, resp *http.Response, err error, final bool) {
	c.mu.Lock()
	c.stats.Attempts++
	c.mu.Unlock()
	r, err := cloneRequest(req)
	if err != nil {
		return nil, nil, err, true
	}
	resp, err = c.httpClient().Do(r)
	if err != nil {
		// Transport failure: reset, refused connection, client timeout.
		c.breakerRecord(false)
		return nil, nil, err, req.Context().Err() != nil
	}
	defer resp.Body.Close()
	c.recordNode(resp)
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		c.breakerRecord(false)
		return nil, resp, err, req.Context().Err() != nil
	}
	if resp.StatusCode == want {
		c.breakerRecord(true)
		return body, resp, nil, true
	}
	msg := strings.TrimSpace(string(body))
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	apiErr := &APIError{StatusCode: resp.StatusCode, Message: msg}
	if !retryableStatus(resp.StatusCode) {
		// A deliberate rejection (400, 404, 409...) proves the daemon
		// healthy and will not improve on retry.
		c.breakerRecord(true)
		return nil, resp, apiErr, true
	}
	c.breakerRecord(false)
	return nil, resp, &retryableError{apiErr, resp}, false
}

// retryableError carries the response alongside the API error so the
// backoff can honor Retry-After.
type retryableError struct {
	*APIError
	resp *http.Response
}

func (e *retryableError) Unwrap() error { return e.APIError }

// nextDelay picks the wait before a retry: the server's Retry-After when
// the last failure carried one, the jittered exponential envelope
// otherwise.
func (c *Client) nextDelay(policy RetryPolicy, retry int, lastErr error) (time.Duration, bool) {
	var re *retryableError
	if errors.As(lastErr, &re) && re.resp != nil {
		if d, ok := retryAfter(re.resp); ok {
			return d, true
		}
	}
	return policy.backoff(retry), false
}

// cloneRequest duplicates a request for one attempt, rewinding the body
// via GetBody (set automatically for the byte-buffer payloads this
// client sends).
func cloneRequest(req *http.Request) (*http.Request, error) {
	r := req.Clone(req.Context())
	if req.GetBody != nil {
		body, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		r.Body = body
	}
	return r, nil
}

// Submission reports how a synchronous submission was answered.
type Submission struct {
	// JobID is the daemon-local job identity.
	JobID string
	// Key is the job's content address (the canonical spec hash).
	Key string
	// Cache is the disposition: "hit", "miss", "coalesced" or "peer".
	Cache string
	// Node is the fleet node that answered (X-Labd-Node; empty for a
	// standalone daemon). With fleet routing this is the node the
	// submission actually landed on: the key's owner, which may not be
	// the node it was sent to, or, for a cache hit served from a read
	// replica, the node it was sent to.
	Node string
	// Bytes is the raw result body — byte-identical for every
	// submission of the same spec.
	Bytes []byte
	// TraceID identifies the request's distributed trace when tracing
	// was on (client-side Trace, daemon-side Config.Tracer, or both);
	// resolve it at the daemon's /debug/traces/{id}.
	TraceID string
}

// Result decodes the result body.
func (s *Submission) Result() (*labd.JobResult, error) {
	var out labd.JobResult
	if err := json.Unmarshal(s.Bytes, &out); err != nil {
		return nil, fmt.Errorf("labd client: decode result: %w", err)
	}
	return &out, nil
}

func (c *Client) postJobs(ctx context.Context, req labd.SubmitRequest, want int) (body []byte, resp *http.Response, traceID string, err error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, nil, "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return nil, nil, "", err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.Trace {
		// One trace ID per logical submission: retries re-send the same
		// traceparent, so however many attempts it takes, the request is
		// one trace.
		var header string
		header, traceID = c.mintTraceparent()
		hreq.Header.Set("traceparent", header)
	}
	body, resp, err = c.do(hreq, want)
	// The daemon's X-Labd-Trace is authoritative (it may have minted its
	// own ID when the client sent none); fall back to the minted ID.
	if resp != nil {
		if got := resp.Header.Get("X-Labd-Trace"); got != "" {
			traceID = got
		}
	}
	return body, resp, traceID, err
}

// Submit runs one job synchronously and returns its result bytes along
// with the cache disposition.
func (c *Client) Submit(ctx context.Context, spec labd.JobSpec) (*Submission, error) {
	return c.SubmitRequest(ctx, labd.SubmitRequest{Job: spec})
}

// SubmitRequest is Submit with delivery options (timeout override).
// req.Async is forced off; use SubmitAsync for fire-and-poll.
func (c *Client) SubmitRequest(ctx context.Context, req labd.SubmitRequest) (*Submission, error) {
	req.Async = false
	body, resp, traceID, err := c.postJobs(ctx, req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	return &Submission{
		JobID:   resp.Header.Get("X-Labd-Job"),
		Key:     resp.Header.Get("X-Labd-Key"),
		Cache:   resp.Header.Get("X-Labd-Cache"),
		Node:    resp.Header.Get("X-Labd-Node"),
		Bytes:   body,
		TraceID: traceID,
	}, nil
}

// SubmitAsync enqueues a job and returns immediately with its status.
func (c *Client) SubmitAsync(ctx context.Context, req labd.SubmitRequest) (*labd.JobInfo, error) {
	req.Async = true
	body, _, _, err := c.postJobs(ctx, req, http.StatusAccepted)
	if err != nil {
		return nil, err
	}
	var info labd.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (*labd.JobInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return nil, err
	}
	body, _, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var info labd.JobInfo
	if err := json.Unmarshal(body, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Jobs lists the daemon's job records, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]labd.JobInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs", nil)
	if err != nil {
		return nil, err
	}
	body, _, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var out struct {
		Jobs []labd.JobInfo `json:"jobs"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Result fetches a finished job's result bytes (byte-identical to the
// synchronous submission body).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	body, _, err := c.do(req, http.StatusOK)
	return body, err
}

// Wait polls an async job until it reaches a terminal status.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*labd.JobInfo, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		info, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if info.Status == labd.StatusDone || info.Status == labd.StatusFailed {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-t.C:
		}
	}
}

// Cancel abandons a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.BaseURL+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	_, _, err = c.do(req, http.StatusOK)
	return err
}

// Leave asks a fleet node to leave gracefully (POST /v1/fleet/leave):
// broadcast departure, hand its cache arc to successors, drain in-flight
// jobs, then confirm. The call returns when the node has fully drained,
// so give ctx room for the slowest in-flight job. Only fleet routers
// serve this route; a plain daemon answers 404.
func (c *Client) Leave(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/fleet/leave", nil)
	if err != nil {
		return err
	}
	_, _, err = c.do(req, http.StatusOK)
	return err
}

// Healthz checks daemon liveness; an error reports down or draining.
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/healthz", nil)
	if err != nil {
		return err
	}
	_, _, err = c.do(req, http.StatusOK)
	return err
}

// Metrics fetches the Prometheus text-format snapshot.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	body, _, err := c.do(req, http.StatusOK)
	return string(body), err
}

// NodeState fetches the daemon's mergeable observability snapshot
// (GET /v1/state) — what fleet aggregation folds across nodes.
func (c *Client) NodeState(ctx context.Context) (*labd.NodeState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/state", nil)
	if err != nil {
		return nil, err
	}
	body, _, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var st labd.NodeState
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// BatchResult is one job's outcome from a Batch call.
type BatchResult struct {
	// Index is the job's position in the submitted slice.
	Index int
	JobID string
	Key   string
	// Cache is the disposition: "hit", "miss", "coalesced" or "peer".
	Cache string
	// Bytes is the canonical result document, trailing newline restored —
	// byte-identical to what a sync Submit of the same spec returns.
	Bytes []byte
	// Err is the job's failure, nil on success.
	Err error
}

// Batch submits many jobs in one POST /v1/jobs/batch call and streams
// their completions: onEvent (optional) fires per event line in arrival
// order, and the returned slice holds every outcome indexed by the job's
// position in jobs. The stream is read to the end even if some jobs
// fail; a transport error mid-stream returns what arrived plus the
// error. Batch does not retry — identical specs are idempotent, so a
// caller can safely resubmit the whole batch; completed jobs answer from
// the cache.
func (c *Client) Batch(ctx context.Context, jobs []labd.JobSpec, timeoutSeconds float64, onEvent func(labd.BatchEvent)) ([]BatchResult, error) {
	if err := c.breakerAllow(); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(labd.BatchRequest{Jobs: jobs, TimeoutSeconds: timeoutSeconds})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.BaseURL+"/v1/jobs/batch", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.mu.Lock()
	c.stats.Attempts++
	c.mu.Unlock()
	resp, err := c.httpClient().Do(req)
	if err != nil {
		c.breakerRecord(false)
		return nil, err
	}
	defer resp.Body.Close()
	c.recordNode(resp)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		msg := strings.TrimSpace(string(body))
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		c.breakerRecord(!retryableStatus(resp.StatusCode))
		return nil, &APIError{StatusCode: resp.StatusCode, Message: msg}
	}
	c.breakerRecord(true)

	results := make([]BatchResult, len(jobs))
	for i := range results {
		results[i] = BatchResult{Index: i, Err: errors.New("labd client: batch stream ended before this job's event")}
	}
	_, _, err = labd.ReadBatchStream(resp.Body, func(ev labd.BatchEvent) {
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Index < 0 || ev.Index >= len(results) {
			return
		}
		r := BatchResult{Index: ev.Index, JobID: ev.ID, Key: ev.Key, Cache: ev.Cache}
		if ev.Status == labd.StatusDone {
			// NDJSON framing stripped the canonical trailing newline;
			// restore it so batch bytes match sync-submission bytes.
			r.Bytes = append(append([]byte(nil), ev.Result...), '\n')
		} else {
			r.Err = &APIError{StatusCode: http.StatusInternalServerError, Message: ev.Error}
		}
		results[ev.Index] = r
	})
	if err != nil {
		return results, fmt.Errorf("labd client: batch stream: %w", err)
	}
	return results, nil
}
