// Package client is a typed Go client for the labd job daemon: submit
// simulation jobs, poll async jobs, and read the daemon's liveness,
// metrics and state. It speaks the wire types of internal/labd.
//
// Each call sends one request and reports its answer. Resilience lives
// in the servers: a draining daemon answers 503 with Retry-After, a job
// that panics fails alone, the disk cache verifies what it reads back,
// and a fleet node retries its peers (gossip.Retry) and re-probes them.
// Resubmitting a spec is always safe, because a job's identity is the
// content address of its normalized spec, so a caller that wants to
// retry can wrap a call in a loop of its own.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
)

// Client talks to one labd instance. It is safe for concurrent use.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// Trace enables distributed tracing: each submission carries a W3C
	// traceparent header minted by the client, so the daemon's trace
	// adopts the client's trace ID and the request is followable
	// end-to-end from either side.
	Trace bool
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// httpClient is shared by every Client: one keep-alive connection pool
// that concurrent callers multiplex over, so connections are reused
// across calls instead of each burst paying fresh TCP handshakes
// (http.DefaultClient would share too, but with pool limits —
// MaxIdleConnsPerHost 2 — that force most concurrent connections to
// close on release under fan-out load).
var httpClient = &http.Client{Transport: &http.Transport{
	Proxy: http.ProxyFromEnvironment,
	DialContext: (&net.Dialer{
		Timeout:   30 * time.Second,
		KeepAlive: 30 * time.Second,
	}).DialContext,
	MaxIdleConns:        512,
	MaxIdleConnsPerHost: 128,
	IdleConnTimeout:     90 * time.Second,
}}

// traceIDs mints the trace and span IDs of traced submissions; it is
// seeded from the clock.
var traceIDs = obs.NewIDGen(0)

// APIError is a non-2xx daemon response.
type APIError struct {
	StatusCode int
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("labd: HTTP %d: %s", e.StatusCode, e.Message)
}

// apiError builds the error for a non-2xx answer: the message of the
// daemon's JSON error envelope, or the trimmed body when it has none.
func apiError(code int, body []byte) *APIError {
	msg := strings.TrimSpace(string(body))
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	return &APIError{StatusCode: code, Message: msg}
}

// do sends req once, reads the body, and demands the given status; any
// other status is an *APIError. The response comes back whenever the
// daemon answered, so a caller can read its headers on an error too.
func do(req *http.Request, want int) ([]byte, *http.Response, error) {
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp, err
	}
	if resp.StatusCode != want {
		return nil, resp, apiError(resp.StatusCode, body)
	}
	return body, resp, nil
}

// get fetches path and demands a 200.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	body, _, err := do(req, http.StatusOK)
	return body, err
}

// getJSON fetches path and decodes its 200 body into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	body, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
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
		tid := traceIDs.TraceID()
		hreq.Header.Set("traceparent", obs.Traceparent(tid, traceIDs.SpanID()))
		traceID = tid.String()
	}
	body, resp, err = do(hreq, want)
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
	var info labd.JobInfo
	if err := c.getJSON(ctx, "/v1/jobs/"+id, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Jobs lists the daemon's job records, oldest first.
func (c *Client) Jobs(ctx context.Context) ([]labd.JobInfo, error) {
	var out struct {
		Jobs []labd.JobInfo `json:"jobs"`
	}
	if err := c.getJSON(ctx, "/v1/jobs", &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Result fetches a finished job's result bytes (byte-identical to the
// synchronous submission body).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.get(ctx, "/v1/jobs/"+id+"/result")
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
	_, _, err = do(req, http.StatusOK)
	return err
}

// Healthz checks daemon liveness; an error reports down or draining.
func (c *Client) Healthz(ctx context.Context) error {
	_, err := c.get(ctx, "/healthz")
	return err
}

// Metrics fetches the Prometheus text-format snapshot.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	body, err := c.get(ctx, "/metrics")
	return string(body), err
}

// NodeState fetches the daemon's mergeable observability snapshot
// (GET /v1/state) — what fleet aggregation folds across nodes.
func (c *Client) NodeState(ctx context.Context) (*labd.NodeState, error) {
	var st labd.NodeState
	if err := c.getJSON(ctx, "/v1/state", &st); err != nil {
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
// error. Identical specs are idempotent, so a caller can safely resubmit
// the whole batch; completed jobs answer from the cache.
func (c *Client) Batch(ctx context.Context, jobs []labd.JobSpec, timeoutSeconds float64, onEvent func(labd.BatchEvent)) ([]BatchResult, error) {
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
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, apiError(resp.StatusCode, body)
	}

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
