package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"jvmgc/internal/labd"
)

// maxShardLine bounds one NDJSON line of a forwarded shard's stream (a
// line embeds a whole result document).
const maxShardLine = 16 << 20

// handleBatch fans a batch out across the fleet: jobs are grouped by
// ring owner, each group is forwarded as a sub-batch (the local group
// runs on the co-resident daemon directly), and completion events are
// merged into one stream as they arrive — the client sees one batch,
// whatever the topology behind it.
//
// Failover is per shard and windowed by completion: when a node dies
// mid-stream, only the jobs whose events had not yet arrived re-route
// to their keys' next ring arcs, and the node is excluded for the rest
// of the request; everything already delivered stays delivered.
// Determinism makes this safe: a job that ran twice (once on the dead
// node, once on its successor) produced identical bytes both times.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 8<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if r.Header.Get(routedHeader) != "" && rt.localH != nil {
		rt.serveLocal(w, r, body)
		return
	}
	var req labd.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("fleet: batch: no jobs"))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	emit := func(ev labd.BatchEvent) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	_ = enc.Encode(labd.BatchHeader{Batch: len(req.Jobs), Node: rt.cfg.Self})
	if flusher != nil {
		flusher.Flush()
	}

	// Content-address every job up front; specs that cannot be keyed
	// cannot be routed and fail immediately.
	keys := make([]string, len(req.Jobs))
	pending := make(map[int]bool, len(req.Jobs))
	for i, spec := range req.Jobs {
		key, err := labd.SpecKey(spec)
		if err != nil {
			if emit(labd.BatchEvent{Index: i, Status: labd.StatusFailed, Error: err.Error()}) != nil {
				return
			}
			continue
		}
		keys[i] = key
		pending[i] = true
	}

	// Placement rounds: shard by owner on the current view, stream,
	// re-shard whatever a failed or draining node left unfinished. That
	// node is excluded for the rest of the request, so each round
	// finishes or removes a node: ring-size+1 rounds always suffice.
	failed := make(map[string]bool)
	owners := make([]string, len(req.Jobs))
	for round := 0; len(pending) > 0 && round <= rt.Ring().Len(); round++ {
		if r.Context().Err() != nil {
			return // the client is gone; no one is reading the stream
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
			owner := rt.pickHash(v, finalize(hashString(keys[i])), exclude)
			if owner == "" {
				continue // no node routable; fails after the loop
			}
			owners[i] = owner
			groups[owner] = append(groups[owner], i)
		}
		if len(groups) == 0 {
			break
		}
		// Buffered for every possible event, so shard workers never block
		// on a client that stopped reading mid-stream.
		msgs := make(chan labd.BatchEvent, len(pending))
		lost := make(chan string, len(groups)) // nodes a shard failed on
		var wg sync.WaitGroup
		for owner, indices := range groups {
			jobs := make([]labd.JobSpec, len(indices))
			for k, i := range indices {
				jobs[k] = req.Jobs[i]
			}
			wg.Add(1)
			if owner == rt.cfg.Self && rt.local != nil {
				go func(indices []int, jobs []labd.JobSpec) {
					defer wg.Done()
					rt.localShard(r, indices, jobs, keys, req.TimeoutSeconds, msgs)
				}(indices, jobs)
			} else {
				go func(owner string, indices []int, jobs []labd.JobSpec) {
					defer wg.Done()
					if !rt.forwardShard(r, v.urls[owner], owner, indices, jobs, req.TimeoutSeconds, msgs) {
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
		clientGone := false
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
			if !clientGone && emit(ev) != nil {
				// Keep draining so shard workers finish; jobs keep
				// running and land in their owners' caches.
				clientGone = true
			}
		}
		if clientGone {
			return
		}
		for id := range lost {
			failed[id] = true
		}
	}
	for _, i := range sortedIndices(pending) {
		if emit(labd.BatchEvent{Index: i, Status: labd.StatusFailed,
			Error: "fleet: no nodes available"}) != nil {
			return
		}
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

// disposition renders a finished job's cache disposition from its info.
func disposition(info labd.JobInfo) string {
	switch {
	case info.CacheHit:
		return "hit"
	case info.Coalesced:
		return "coalesced"
	case info.PeerHit:
		return "peer"
	default:
		return "miss"
	}
}

// localShard runs one shard on the co-resident daemon directly — no
// socket, no serialization round-trip. Submitting everything before
// waiting preserves intra-shard coalescing, then each job's completion
// becomes an event as it happens. The content keys were already derived
// once for routing, so submissions reuse them instead of re-hashing.
func (rt *Router) localShard(r *http.Request, indices []int, jobs []labd.JobSpec, keys []string, timeout float64, msgs chan<- labd.BatchEvent) {
	rt.localJobs.Add(int64(len(indices)))
	var wg sync.WaitGroup
	for k, spec := range jobs {
		idx := indices[k]
		j, err := rt.local.SubmitPreKeyed(r.Context(), labd.SubmitRequest{
			Job:            spec,
			TimeoutSeconds: timeout,
		}, keys[idx])
		if err != nil {
			msgs <- labd.BatchEvent{Index: idx, Status: labd.StatusFailed, Error: err.Error()}
			continue
		}
		wg.Add(1)
		go func(idx int, j *labd.Job) {
			defer wg.Done()
			<-j.Done()
			info := j.Info()
			ev := labd.BatchEvent{Index: idx, ID: j.ID, Key: j.Key, Cache: disposition(info)}
			if bytes, err := j.Result(); err != nil {
				ev.Status = labd.StatusFailed
				ev.Error = err.Error()
			} else {
				ev.Status = labd.StatusDone
				ev.Result = bytes
			}
			msgs <- ev
		}(idx, j)
	}
	wg.Wait()
}

// forwardShard streams one shard through a peer node's batch endpoint
// at url, remapping event indices back into the caller's space. False
// reports that the shard failed on the node — connect, 5xx, a stream
// cut mid-batch: the indices whose events never arrived stay pending
// and re-route next round. Connection-level failures also go to gossip.
func (rt *Router) forwardShard(r *http.Request, url, node string, indices []int, jobs []labd.JobSpec, timeout float64, msgs chan<- labd.BatchEvent) bool {
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
	payload, err := json.Marshal(labd.BatchRequest{Jobs: jobs, TimeoutSeconds: timeout})
	if err != nil {
		return fail(err.Error())
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		url+"/v1/jobs/batch", bytes.NewReader(payload))
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
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode >= http.StatusInternalServerError {
			return false
		}
		// Deliberate rejection (4xx): retrying elsewhere cannot help.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return fail(strings.TrimSpace(string(body)))
	}
	rt.forwards.Add(int64(len(indices)))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxShardLine)
	var header labd.BatchHeader
	if !sc.Scan() || json.Unmarshal(sc.Bytes(), &header) != nil {
		rt.suspect(node, sc.Err())
		return false
	}
	got := 0
	for got < header.Batch && sc.Scan() {
		var ev labd.BatchEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			break
		}
		if ev.Index < 0 || ev.Index >= len(indices) {
			continue
		}
		ev.Index = indices[ev.Index]
		msgs <- ev
		got++
	}
	if got < header.Batch {
		// The stream broke mid-batch (this is how a node kill manifests):
		// the unacked remainder re-routes.
		rt.suspect(node, sc.Err())
		return false
	}
	return true
}
