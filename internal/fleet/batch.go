package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"jvmgc/internal/labd"
)

// handleBatch fans a batch out across the fleet: jobs are grouped by
// ring owner, each group is forwarded as a sub-batch (the local group
// runs on the co-resident daemon directly), and completion events are
// merged into one stream as they arrive — the client sees one batch,
// whatever the topology behind it. The batch is decoded, bounded and
// streamed by the daemon's own code (labd.DecodeBatch, labd.StreamBatch),
// so a fleet node answers a batch as a single daemon does.
//
// Failover is per shard and windowed by completion: when a node dies
// mid-stream, only the jobs whose events had not yet arrived re-route
// to their keys' next ring arcs, and the node is excluded for the rest
// of the request; everything already delivered stays delivered.
// Determinism makes this safe: a job that ran twice (once on the dead
// node, once on its successor) produced identical bytes both times.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	if rt.serveRouted(w, r) {
		return
	}
	bp, err := labd.ReadPooledBody(w, r, labd.MaxBatchBody)
	if err != nil {
		labd.WriteError(w, http.StatusBadRequest, err)
		return
	}
	req, raw, err := labd.DecodeBatch(*bp)
	labd.ReleaseBody(bp)
	if err != nil {
		labd.WriteError(w, http.StatusBadRequest, err)
		return
	}
	events := make(chan labd.BatchEvent, len(req.Jobs))
	placed := make(chan struct{})
	go func() {
		defer close(placed)
		rt.placeBatch(r.Context(), req, raw, events)
	}()
	labd.StreamBatch(w, r, len(req.Jobs), rt.cfg.Self, events)
	<-placed // shard workers finish, even for a client that left
}

// placeBatch runs a batch's placement rounds and sends each job's final
// event to events, which has room for all of them. raw holds each job's
// bytes as the client sent them, which a shard forwards unchanged. It
// stops placing once ctx is done: the client is gone, and no one reads
// the stream.
func (rt *Router) placeBatch(ctx context.Context, req labd.BatchRequest, raw []json.RawMessage, events chan<- labd.BatchEvent) {
	// Content-address every job up front; specs that cannot be keyed
	// cannot be routed and fail immediately.
	keys := make([][64]byte, len(req.Jobs))
	hashes := make([]uint64, len(req.Jobs))
	pending := make(map[int]bool, len(req.Jobs))
	for i, spec := range req.Jobs {
		h, err := specHash(spec, &keys[i])
		if err != nil {
			events <- labd.BatchEvent{Index: i, Status: labd.StatusFailed, Error: err.Error()}
			continue
		}
		hashes[i] = h
		pending[i] = true
	}

	// Placement rounds: shard by owner on the current view, stream,
	// re-shard whatever a failed or draining node left unfinished. That
	// node is excluded for the rest of the request, so each round
	// finishes or removes a node: ring-size+1 rounds always suffice.
	failed := make(map[string]bool)
	owners := make([]string, len(req.Jobs))
	for round := 0; len(pending) > 0 && round <= rt.Ring().Len(); round++ {
		if ctx.Err() != nil {
			return
		}
		if round > 0 {
			rt.reroutes.Add(int64(len(pending)))
		}
		v := rt.view.Load()
		var exclude uint64
		for id := range failed {
			exclude |= v.bit(id)
		}
		groups := make(map[string][]int)
		for _, i := range sortedIndices(pending) {
			owner := rt.pickHash(v, hashes[i], exclude)
			if owner == "" {
				continue // no node routable; fails after the loop
			}
			owners[i] = owner
			groups[owner] = append(groups[owner], i)
		}
		if len(groups) == 0 {
			break
		}
		// Buffered for every possible event, so shard workers never block.
		msgs := make(chan labd.BatchEvent, len(pending))
		lost := make(chan string, len(groups)) // nodes a shard failed on
		var wg sync.WaitGroup
		for owner, indices := range groups {
			wg.Add(1)
			if owner == rt.cfg.Self && rt.local != nil {
				jobs := make([]labd.JobSpec, len(indices))
				shardKeys := make([]string, len(indices))
				for k, i := range indices {
					jobs[k] = req.Jobs[i]
					shardKeys[k] = string(keys[i][:])
				}
				go func(indices []int, jobs []labd.JobSpec, keys []string) {
					defer wg.Done()
					rt.localShard(ctx, indices, jobs, keys, req.TimeoutSeconds, msgs)
				}(indices, jobs, shardKeys)
			} else {
				jobs := make([]json.RawMessage, len(indices))
				for k, i := range indices {
					jobs[k] = raw[i]
				}
				go func(owner string, indices []int, jobs []json.RawMessage) {
					defer wg.Done()
					if !rt.forwardShard(ctx, v.urls[owner], owner, indices, jobs, req.TimeoutSeconds, msgs) {
						lost <- owner
					}
				}(owner, indices, jobs)
			}
		}
		go func() {
			wg.Wait()
			close(msgs)
			close(lost)
		}()
		for ev := range msgs {
			if !pending[ev.Index] {
				continue
			}
			if ev.Status == labd.StatusFailed && strings.Contains(ev.Error, labd.ErrDraining.Error()) {
				// The job raced a graceful leave: the shard landed after
				// the target stopped intake. Not a failure — the job stays
				// pending and re-routes, away from the leaver, next round.
				failed[owners[ev.Index]] = true
				continue
			}
			delete(pending, ev.Index)
			events <- ev
		}
		for id := range lost {
			failed[id] = true
		}
	}
	for _, i := range sortedIndices(pending) {
		events <- labd.BatchEvent{Index: i, Status: labd.StatusFailed, Error: "fleet: no nodes available"}
	}
}

func sortedIndices(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// localShard runs one shard on the co-resident daemon directly — no
// socket, no serialization round-trip — with the content keys already
// derived for placement, and maps each event's index back into the
// batch's.
func (rt *Router) localShard(ctx context.Context, indices []int, jobs []labd.JobSpec, keys []string, timeout float64, msgs chan<- labd.BatchEvent) {
	rt.localJobs.Add(int64(len(indices)))
	events := make(chan labd.BatchEvent, len(jobs))
	rt.local.RunBatch(ctx, jobs, keys, timeout, events)
	for range jobs {
		ev := <-events
		ev.Index = indices[ev.Index]
		msgs <- ev
	}
}

// forwardShard streams one shard through a peer node's batch endpoint
// at url, remapping event indices back into the caller's space. jobs
// are the shard's jobs as the client sent them. False reports that the
// shard failed on the node — connect, 5xx, a stream cut mid-batch: the
// indices whose events never arrived stay pending and re-route next
// round. Connection-level failures also go to gossip.
func (rt *Router) forwardShard(ctx context.Context, url, node string, indices []int, jobs []json.RawMessage, timeout float64, msgs chan<- labd.BatchEvent) bool {
	rt.acquire(node, len(indices))
	defer rt.release(node, len(indices))
	fail := func(msg string) bool {
		for _, i := range indices {
			msgs <- labd.BatchEvent{Index: i, Status: labd.StatusFailed, Error: msg}
		}
		return true
	}
	if err := rt.injectTransport(node); err != nil {
		rt.suspect(node, err)
		return false
	}
	// The encoder copies each raw job compacted. Without HTML escaping it
	// rewrites no character, so a shard is never larger than its batch:
	// json.Marshal would write each <, > and & as six bytes, and a
	// re-encoded spec each U+2028 and U+2029.
	var payload bytes.Buffer
	enc := json.NewEncoder(&payload)
	enc.SetEscapeHTML(false)
	shard := struct {
		Jobs           []json.RawMessage `json:"jobs"`
		TimeoutSeconds float64           `json:"timeout_seconds,omitempty"`
	}{jobs, timeout}
	if err := enc.Encode(shard); err != nil {
		return fail(err.Error())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		url+"/v1/jobs/batch", &payload)
	if err != nil {
		return fail(err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(routedHeader, "1")
	resp, err := rt.cfg.HTTPClient.Do(req)
	if err != nil {
		rt.suspect(node, err)
		return false
	}
	if resp.StatusCode >= http.StatusInternalServerError {
		// A draining owner answers 503: the shard re-routes, and the
		// connection, its short error body read, goes back to the pool.
		drainClose(resp.Body)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Deliberate rejection (4xx): retrying elsewhere cannot help.
		// Each event carries the bare message, as a daemon's does.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		var rejection struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &rejection) != nil || rejection.Error == "" {
			rejection.Error = strings.TrimSpace(string(body))
		}
		return fail(rejection.Error)
	}
	rt.forwards.Add(int64(len(indices)))
	header, got, err := labd.ReadBatchStream(resp.Body, func(ev labd.BatchEvent) {
		if ev.Index >= 0 && ev.Index < len(indices) {
			ev.Index = indices[ev.Index]
			msgs <- ev
		}
	})
	if err != nil || got < header.Batch {
		// The stream broke mid-batch (this is how a node kill manifests):
		// the unacked remainder re-routes. A stream that was read but is
		// malformed proves the node alive, as an HTTP error does.
		if !errors.Is(err, labd.ErrMalformedBatch) {
			rt.suspect(node, err)
		}
		return false
	}
	return true
}
