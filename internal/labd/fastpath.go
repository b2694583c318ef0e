package labd

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// The submit fast path: resolve a memory-tier cache hit without
// allocating. The daemon's steady state under heavy traffic is exactly
// this case — the spec pool is finite, every spec has been computed
// once, and from then on each submission is a lookup. The slow path
// pays for a Job record, a context, a flight check and a trace hook per
// request; none of that observes anything on a memory hit, so the fast
// path skips all of it:
//
//	normalize (scalar copy) → spec JSON into pooled scratch →
//	SHA-256 (stack) → hex (stack) → LRU lookup via m[string(key)] →
//	counters, latency histogram, SLO observation.
//
// Every step is allocation-free, pinned by TestTryCacheHitZeroAlloc and
// bench-gated by BenchmarkSubmitCacheHit. Fast-path hits update every
// counter the slow path would (submitted, hits, hits.memory, completed),
// the streaming latency histogram and the SLO monitor — but they do not
// create Job records or latency-summary spans: a hit resolved in
// hundreds of nanoseconds has no lifecycle to record, and appending a
// span per hit would grow the recorder without bound under load.
//
// The fast path declines (returns ok=false, sending the caller to the
// full scheduler) whenever any of its assumptions fail: tracing enabled,
// daemon draining, invalid spec, a spec whose strings need JSON
// escaping, or a key that is not in the memory tier (disk promotion and
// flight coalescing are slow-path work).

// Fleet routing headers. A router computes the spec's content address
// once for placement and carries it on the forwarded request, so the
// owning daemon never re-derives it. HeaderSpecKey is honored only on
// requests bearing HeaderRouted — the same trust boundary that already
// lets a routed request bypass ring placement: both headers are
// meaningful only inside the fleet's internal network, where routers
// are the only senders.
//
// HeaderReplica marks a forward from a fleet node that keeps a replica
// of the owner's cache hits. On a hit the owner attaches the body's
// SHA-256 as X-Labd-Sha256, which the entry node verifies before it
// keeps the bytes. A standalone router keeps nothing and does not send
// it, so the hits it forwards cost the owner no hashing.
const (
	HeaderRouted  = "X-Labd-Routed"
	HeaderSpecKey = "X-Labd-Spec-Key"
	HeaderReplica = "X-Labd-Replica"
)

// specScratch pools the JSON scratch buffers spec keys are encoded
// into. Buffers keep their grown capacity across uses, so the steady
// state never allocates.
var specScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 256)
	return &b
}}

// plainJSONString reports whether encoding/json would emit s verbatim:
// printable ASCII with no characters that JSON or HTML escaping would
// rewrite. Anything else sends the caller to the encoding/json
// fallback rather than replicating the escaper.
func plainJSONString(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' ||
			c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendJSONFloat appends f exactly as encoding/json encodes a float64:
// shortest 'f' form in the human range, 'e' form outside it with the
// two-digit negative exponent's leading zero trimmed (ES6 style).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendSpecJSON appends the spec's canonical encoding — byte-identical
// to json.Marshal(s), which is what the cache key hashes — without
// allocating. ok=false means the spec needs the encoding/json fallback
// (a string requiring escaping, or a non-finite float); dst is then
// partial garbage the caller must discard. Field order and omitempty
// behaviour mirror the JobSpec struct exactly; the byte-identity test
// sweeps a spec matrix against json.Marshal to pin that.
func appendSpecJSON(dst []byte, s JobSpec) ([]byte, bool) {
	if !plainJSONString(s.Kind) || !plainJSONString(s.Collector) ||
		!plainJSONString(s.Benchmark) || !plainJSONString(s.Workload) {
		return dst, false
	}
	for _, f := range [...]float64{s.AllocBytesPerSec, s.DurationSeconds, s.MaxPauseMS, s.MaxPausedPct} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, false
		}
	}
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, s.Kind...)
	dst = append(dst, '"')
	if s.Collector != "" {
		dst = append(dst, `,"collector":"`...)
		dst = append(dst, s.Collector...)
		dst = append(dst, '"')
	}
	if s.Benchmark != "" {
		dst = append(dst, `,"benchmark":"`...)
		dst = append(dst, s.Benchmark...)
		dst = append(dst, '"')
	}
	if s.HeapBytes != 0 {
		dst = append(dst, `,"heap_bytes":`...)
		dst = strconv.AppendInt(dst, s.HeapBytes, 10)
	}
	if s.YoungBytes != 0 {
		dst = append(dst, `,"young_bytes":`...)
		dst = strconv.AppendInt(dst, s.YoungBytes, 10)
	}
	if s.Threads != 0 {
		dst = append(dst, `,"threads":`...)
		dst = strconv.AppendInt(dst, int64(s.Threads), 10)
	}
	if s.AllocBytesPerSec != 0 {
		dst = append(dst, `,"alloc_bytes_per_sec":`...)
		dst = appendJSONFloat(dst, s.AllocBytesPerSec)
	}
	if s.DurationSeconds != 0 {
		dst = append(dst, `,"duration_seconds":`...)
		dst = appendJSONFloat(dst, s.DurationSeconds)
	}
	if s.Iterations != 0 {
		dst = append(dst, `,"iterations":`...)
		dst = strconv.AppendInt(dst, int64(s.Iterations), 10)
	}
	if s.NoSystemGC {
		dst = append(dst, `,"no_system_gc":true`...)
	}
	if s.SystemGC {
		dst = append(dst, `,"system_gc":true`...)
	}
	if s.DisableTLAB {
		dst = append(dst, `,"disable_tlab":true`...)
	}
	if s.Stress {
		dst = append(dst, `,"stress":true`...)
	}
	if s.Workload != "" {
		dst = append(dst, `,"workload":"`...)
		dst = append(dst, s.Workload...)
		dst = append(dst, '"')
	}
	if s.MaxPauseMS != 0 {
		dst = append(dst, `,"max_pause_ms":`...)
		dst = appendJSONFloat(dst, s.MaxPauseMS)
	}
	if s.MaxPausedPct != 0 {
		dst = append(dst, `,"max_paused_pct":`...)
		dst = appendJSONFloat(dst, s.MaxPausedPct)
	}
	if s.Nodes != 0 {
		dst = append(dst, `,"nodes":`...)
		dst = strconv.AppendInt(dst, int64(s.Nodes), 10)
	}
	if s.ReplicationFactor != 0 {
		dst = append(dst, `,"replication_factor":`...)
		dst = strconv.AppendInt(dst, int64(s.ReplicationFactor), 10)
	}
	if s.Seed != 0 {
		dst = append(dst, `,"seed":`...)
		dst = strconv.AppendUint(dst, s.Seed, 10)
	}
	dst = append(dst, '}')
	return dst, true
}

// fastSpecKey writes a normalized spec's content address (64 hex bytes)
// into hexOut without allocating. ok=false sends the caller to the
// encoding/json fallback in JobSpec.key.
func fastSpecKey(s JobSpec, hexOut *[64]byte) bool {
	bp := specScratch.Get().(*[]byte)
	b, ok := appendSpecJSON((*bp)[:0], s)
	if ok {
		sum := sha256.Sum256(b)
		hex.Encode(hexOut[:], sum[:])
	}
	*bp = b[:0]
	specScratch.Put(bp)
	return ok
}

// SpecKeyInto normalizes spec and writes its content address — exactly
// the key Submit computes — into out, allocation-free for ordinary
// specs. This is the form a fleet router uses per placement: the hex
// key never becomes a string until (and unless) a header needs one.
func SpecKeyInto(spec JobSpec, out *[64]byte) error {
	n, err := spec.normalized()
	if err != nil {
		return err
	}
	if fastSpecKey(n, out) {
		return nil
	}
	key, err := n.key()
	if err != nil {
		return err
	}
	copy(out[:], key)
	return nil
}

// TryCacheHit resolves one synchronous submission on the
// zero-allocation fast path: normalized spec → content address →
// memory-tier lookup. On a hit it returns the stored result bytes
// (shared, not copied — callers must not modify them) with the key in
// hexKey, having updated the submission counters, latency histogram and
// SLO monitor. ok=false means the caller must take the full scheduler
// path — a miss, a disk-tier candidate, an invalid spec, tracing
// enabled, or a draining daemon.
func (s *Server) TryCacheHit(spec JobSpec) (result []byte, hexKey [64]byte, ok bool) {
	if !s.FastPathOpen() {
		return nil, hexKey, false
	}
	start := time.Now()
	norm, err := spec.normalized()
	if err != nil {
		return nil, hexKey, false
	}
	if !fastSpecKey(norm, &hexKey) {
		return nil, hexKey, false
	}
	bytes, found := s.cache.getBytes(hexKey[:])
	if !found {
		return nil, hexKey, false
	}
	s.recordFastHit(time.Since(start))
	return bytes, hexKey, true
}

// TryCacheHitKey is TryCacheHit for callers that already hold the
// spec's content address — the fleet fast path, where the router
// computed the key for placement and carried it on the request.
func (s *Server) TryCacheHitKey(key string) ([]byte, bool) {
	if !s.FastPathOpen() {
		return nil, false
	}
	start := time.Now()
	bytes, found := s.cache.get(key)
	if !found {
		return nil, false
	}
	s.recordFastHit(time.Since(start))
	return bytes, true
}

// FastPathOpen reports whether the fast path takes requests at all: it
// is closed on a traced daemon (every request gets a trace) and on a
// draining one. A fleet node keeps replicas of its peers' hits only
// while it can serve them here.
func (s *Server) FastPathOpen() bool {
	return !s.tracer.Enabled() && !s.drainFast.Load()
}

// WriteCacheHit answers a synchronous submission with the bytes
// TryCacheHitKey returned for key: the response the daemon's own fast
// path writes, X-Labd-Node included. A fleet node answers hits on keys
// it does not own through it.
func (s *Server) WriteCacheHit(w http.ResponseWriter, key string, bytes []byte) {
	if s.cfg.NodeID != "" {
		w.Header().Set("X-Labd-Node", s.cfg.NodeID)
	}
	s.writeCachedResult(w, key, bytes, false)
}

// recordFastHit files a fast-path hit's accounting: the same counters a
// scheduled hit increments, the streaming latency histogram, and the
// SLO monitor. No Job record and no latency-summary span — see the
// package comment at the top of this file.
func (s *Server) recordFastHit(elapsed time.Duration) {
	s.fastSubmitted.Add(1)
	s.fastHits.Add(1)
	s.fastHitsMem.Add(1)
	s.fastCompleted.Add(1)
	s.histMu.Lock()
	s.latHist.Record(elapsed.Seconds())
	s.histMu.Unlock()
	s.slo.Observe(elapsed, false)
}
