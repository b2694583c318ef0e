package labd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// maxBatchJobs bounds one POST /v1/jobs/batch submission. The limit is
// a framing guard, not a throughput one — the scheduler's queue bound
// still applies per job, so an oversized burst inside the limit simply
// collects ErrQueueFull events for the overflow.
const maxBatchJobs = 1024

// maxEventLine bounds one NDJSON line of a batch stream (a line embeds
// a whole result document).
const maxEventLine = 16 << 20

// ErrMalformedBatch marks a batch stream that was read but is not the
// protocol: it has no header line, or a line does not decode. A stream
// that could not be read returns the read error instead.
var ErrMalformedBatch = errors.New("labd: malformed batch stream")

// BatchRequest is the POST /v1/jobs/batch payload: many specs, one
// delivery policy. Each job is submitted independently — cache hits,
// coalescing and backpressure apply per job exactly as they would for
// individual POST /v1/jobs calls.
type BatchRequest struct {
	Jobs []JobSpec `json:"jobs"`
	// TimeoutSeconds bounds each job's queue-plus-run time (0 = server
	// default), same semantics as SubmitRequest.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// BatchHeader is the first line of the NDJSON batch response: how many
// event lines follow, and which node produced them.
type BatchHeader struct {
	Batch int    `json:"batch"`
	Node  string `json:"node,omitempty"`
}

// BatchEvent is one per-job completion line in the NDJSON stream.
// Events arrive in completion order, not submission order; Index maps
// each back to its position in BatchRequest.Jobs.
type BatchEvent struct {
	Index  int    `json:"index"`
	ID     string `json:"id,omitempty"`
	Key    string `json:"key,omitempty"`
	Status string `json:"status"`
	// Cache is the job's final disposition: hit, coalesced, peer, miss.
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	// Result embeds the job's result document. NDJSON framing forbids
	// the canonical result's trailing newline, so the embedded form is
	// the canonical bytes minus that newline (JSON re-encoding of an
	// already-compact document changes nothing else); clients append
	// '\n' to recover the byte-identical document a sync submission
	// would have returned.
	Result json.RawMessage `json:"result,omitempty"`
}

// DecodeBatch parses a POST /v1/jobs/batch body and bounds its job
// count to 1..maxBatchJobs. The daemon's handler and a fleet router
// both decode with it, so a fleet node rejects exactly what a daemon
// rejects, with the same error. It also returns each job's bytes as the
// client sent them, index for index with req.Jobs: a fleet router
// forwards those to the job's owner, so a shard is never larger than
// its batch.
func DecodeBatch(body []byte) (req BatchRequest, raw []json.RawMessage, err error) {
	if err := json.Unmarshal(body, &req); err != nil {
		return req, nil, err
	}
	if len(req.Jobs) == 0 {
		return req, nil, errors.New("labd: batch: no jobs")
	}
	if len(req.Jobs) > maxBatchJobs {
		return req, nil, fmt.Errorf("labd: batch: %d jobs exceeds limit %d", len(req.Jobs), maxBatchJobs)
	}
	var jobs struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal(body, &jobs); err != nil {
		return req, nil, err
	}
	return req, jobs.Jobs, nil
}

// handleBatch streams a batch of jobs: one header line, then one event
// line per job as it completes. Streaming per-completion (rather than
// buffering the whole batch) is what lets a fleet router start
// forwarding finished results while slower shards still run, and what
// lets a client watch a sweep progress job by job.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	bp, err := ReadPooledBody(w, r, MaxBatchBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, _, err := DecodeBatch(*bp)
	ReleaseBody(bp)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	events := make(chan BatchEvent, len(req.Jobs))
	s.RunBatch(r.Context(), req.Jobs, nil, req.TimeoutSeconds, events)
	StreamBatch(w, r, len(req.Jobs), s.cfg.NodeID, events)
}

// RunBatch submits every job of a batch and returns; each job's event,
// Index being its position in jobs, goes to events once the job
// completes (or at once, when it is rejected). Everything is submitted
// before anything is waited on, so identical specs in one batch
// coalesce onto one flight. keys holds each job's content address when
// the caller already derived it (a fleet router keys jobs to place
// them), or is nil. events must have room for every job's event, so a
// completion never blocks on a reader that stopped reading.
func (s *Server) RunBatch(ctx context.Context, jobs []JobSpec, keys []string, timeout float64, events chan<- BatchEvent) {
	for i, spec := range jobs {
		req := SubmitRequest{Job: spec, TimeoutSeconds: timeout}
		var j *Job
		var err error
		if keys != nil {
			j, err = s.SubmitPreKeyed(ctx, req, keys[i])
		} else {
			j, err = s.SubmitContext(ctx, req)
		}
		if err != nil {
			events <- BatchEvent{Index: i, Status: StatusFailed, Error: err.Error()}
			continue
		}
		go func(i int, j *Job) {
			<-j.Done()
			ev := BatchEvent{Index: i, ID: j.ID, Key: j.Key, Cache: cacheDisposition(j)}
			if bytes, err := j.Result(); err != nil {
				ev.Status = StatusFailed
				ev.Error = err.Error()
			} else {
				ev.Status = StatusDone
				ev.Result = bytes
			}
			events <- ev
		}(i, j)
	}
}

// StreamBatch answers a batch with its NDJSON stream: the header line
// announcing n events from node, then each event from events as it
// arrives, one flushed line apiece. It returns once n events are
// written, or when the client is gone; events must have room for every
// event, so their senders never block on a client that stopped reading.
func StreamBatch(w http.ResponseWriter, r *http.Request, n int, node string, events <-chan BatchEvent) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(BatchHeader{Batch: n, Node: node})
	flush()
	// One pooled framing buffer serves the whole stream: each event line
	// is built into it and written out, so a thousand-job batch allocates
	// framing storage once instead of per line. Events whose strings need
	// JSON escaping fall back to the encoder (see appendBatchEvent).
	fp := framePool.Get().(*[]byte)
	frame := bytes.NewBuffer((*fp)[:0])
	defer func() {
		*fp = frame.Bytes()[:0]
		framePool.Put(fp)
	}()
	for done := 0; done < n; done++ {
		select {
		case ev := <-events:
			frame.Reset()
			if appendBatchEvent(frame, ev) {
				if _, err := w.Write(frame.Bytes()); err != nil {
					return
				}
			} else if err := enc.Encode(ev); err != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			// Client gone; jobs keep running and land in the cache.
			return
		}
	}
}

// ReadBatchStream reads a batch's NDJSON stream from body: the header,
// then at most the header's count of events, calling each on every
// event in arrival order. It returns the header and how many events it
// read. The error is the stream's read error, or one wrapping
// ErrMalformedBatch; a stream that ends cleanly short of the header's
// count returns nil and the short count.
func ReadBatchStream(body io.Reader, each func(BatchEvent)) (BatchHeader, int, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 64<<10), maxEventLine)
	var header BatchHeader
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return header, 0, err
		}
		return header, 0, fmt.Errorf("%w: no header", ErrMalformedBatch)
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return header, 0, lineError(sc, "header", err)
	}
	n := 0
	for n < header.Batch && sc.Scan() {
		var ev BatchEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return header, n, lineError(sc, "event", err)
		}
		each(ev)
		n++
	}
	return header, n, sc.Err()
}

// lineError reports a line of a batch stream that did not decode. A
// stream cut mid-line hands the scanner its partial last line, so the
// read error, when there is one, is the cause.
func lineError(sc *bufio.Scanner, what string, err error) error {
	if rerr := sc.Err(); rerr != nil {
		return rerr
	}
	return fmt.Errorf("%w: %s: %w", ErrMalformedBatch, what, err)
}

// framePool recycles NDJSON framing buffers across batch responses.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// appendBatchEvent frames one NDJSON event line into buf, byte-identical
// to json.Encoder with SetEscapeHTML(false) (pinned by the framing
// byte-identity test): scalar fields are written by hand in struct-field
// order, and the embedded result document goes through json.Compact —
// the same compaction the encoder applies to a RawMessage — so interior
// string content (spaces, pre-escaped sequences) is never rewritten.
// ok=false means a string needs JSON escaping (typically an error
// message) and the caller must use the encoder; buf is then dirty and
// must be Reset.
func appendBatchEvent(buf *bytes.Buffer, ev BatchEvent) bool {
	if !plainJSONString(ev.ID) || !plainJSONString(ev.Key) ||
		!plainJSONString(ev.Status) || !plainJSONString(ev.Cache) ||
		!plainJSONString(ev.Error) {
		return false
	}
	var scratch [20]byte
	buf.WriteString(`{"index":`)
	buf.Write(strconv.AppendInt(scratch[:0], int64(ev.Index), 10))
	if ev.ID != "" {
		buf.WriteString(`,"id":"`)
		buf.WriteString(ev.ID)
		buf.WriteByte('"')
	}
	if ev.Key != "" {
		buf.WriteString(`,"key":"`)
		buf.WriteString(ev.Key)
		buf.WriteByte('"')
	}
	buf.WriteString(`,"status":"`)
	buf.WriteString(ev.Status)
	buf.WriteByte('"')
	if ev.Cache != "" {
		buf.WriteString(`,"cache":"`)
		buf.WriteString(ev.Cache)
		buf.WriteByte('"')
	}
	if ev.Error != "" {
		buf.WriteString(`,"error":"`)
		buf.WriteString(ev.Error)
		buf.WriteByte('"')
	}
	if len(ev.Result) != 0 {
		buf.WriteString(`,"result":`)
		if err := json.Compact(buf, ev.Result); err != nil {
			return false
		}
	}
	buf.WriteString("}\n")
	return true
}
