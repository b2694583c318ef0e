package labd

import (
	"encoding/json"
	"fmt"

	"jvmgc/internal/dacapo"
)

// Job kinds accepted by the daemon. Each maps onto one laboratory entry
// point (see run.go).
const (
	KindSimulate     = "simulate"     // one bare JVM run (jvmgc.Simulate)
	KindBenchmark    = "benchmark"    // one DaCapo run (jvmgc.RunBenchmark)
	KindClientServer = "clientserver" // Cassandra+YCSB (jvmgc.RunClientServer)
	KindAdvise       = "advise"       // SLO tuning sweep (jvmgc.Advise)
	KindCluster      = "cluster"      // replicated ring (jvmgc.RunCluster)
	KindRanking      = "ranking"      // collector-ranking grid (core.FigureRanking)
)

// Kinds lists the supported job kinds.
func Kinds() []string {
	return []string{KindSimulate, KindBenchmark, KindClientServer,
		KindAdvise, KindCluster, KindRanking}
}

// JobSpec describes one simulation job. The zero value of every optional
// field selects the laboratory default for the job's kind; normalization
// makes those defaults explicit before hashing, so two specs that request
// the same experiment share one cache key however they spell it.
//
// Every simulation is deterministic in the spec (including Seed), which
// is what makes content-addressed caching sound: the spec hash fully
// determines the result bytes. Fields that cannot change the result —
// timeouts, sync/async submission, the daemon's parallelism — live in
// SubmitRequest or server configuration, never here.
type JobSpec struct {
	Kind string `json:"kind"`
	// Collector is a jvmgc.Collectors name (default "ParallelOld").
	Collector string `json:"collector,omitempty"`
	// Benchmark names the DaCapo benchmark (kind "benchmark" only).
	Benchmark string `json:"benchmark,omitempty"`
	// HeapBytes / YoungBytes fix the heap geometry. Young 0 leaves the
	// collector's ergonomics in charge.
	HeapBytes  int64 `json:"heap_bytes,omitempty"`
	YoungBytes int64 `json:"young_bytes,omitempty"`
	// Threads is the mutator thread count.
	Threads int `json:"threads,omitempty"`
	// AllocBytesPerSec is the workload allocation rate.
	AllocBytesPerSec float64 `json:"alloc_bytes_per_sec,omitempty"`
	// DurationSeconds is the simulated length: the run window (simulate),
	// client phase (clientserver, cluster) or per-candidate evaluation
	// window (advise).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// Iterations is the DaCapo iteration count (kind "benchmark").
	Iterations int `json:"iterations,omitempty"`
	// NoSystemGC disables the forced full collection between DaCapo
	// iterations (kind "benchmark").
	NoSystemGC bool `json:"no_system_gc,omitempty"`
	// SystemGC selects the ranking study variant (kind "ranking").
	SystemGC bool `json:"system_gc,omitempty"`
	// DisableTLAB turns thread-local allocation buffers off.
	DisableTLAB bool `json:"disable_tlab,omitempty"`
	// Stress selects the saturating Cassandra configuration
	// (kinds "clientserver" and "cluster").
	Stress bool `json:"stress,omitempty"`
	// Workload selects a YCSB core workload letter "A".."F"
	// (kind "clientserver"); empty runs the paper's 50/50 mix.
	Workload string `json:"workload,omitempty"`
	// MaxPauseMS / MaxPausedPct are the advisory SLO (kind "advise",
	// 0 = unbounded).
	MaxPauseMS   float64 `json:"max_pause_ms,omitempty"`
	MaxPausedPct float64 `json:"max_paused_pct,omitempty"`
	// Nodes / ReplicationFactor shape the ring (kind "cluster").
	Nodes             int `json:"nodes,omitempty"`
	ReplicationFactor int `json:"replication_factor,omitempty"`
	// Seed drives all randomness; the run replays bit-identically.
	Seed uint64 `json:"seed,omitempty"`
}

// maxDurationSeconds bounds a single job's simulated length (one
// simulated day) so a typo cannot park a worker forever.
const maxDurationSeconds = 24 * 3600

// normalized returns the spec with every kind-relevant default made
// explicit and every kind-irrelevant field zeroed, or an error for an
// invalid spec. Normalizing before hashing gives default-equivalent
// requests identical cache keys.
func (s JobSpec) normalized() (JobSpec, error) {
	if s.DurationSeconds < 0 || s.DurationSeconds > maxDurationSeconds {
		return s, fmt.Errorf("duration_seconds %g outside (0, %d]",
			s.DurationSeconds, maxDurationSeconds)
	}
	n := JobSpec{Kind: s.Kind, Seed: s.Seed}
	switch s.Kind {
	case KindSimulate:
		n.Collector = defaultStr(s.Collector, "ParallelOld")
		n.HeapBytes = defaultInt64(s.HeapBytes, 16<<30)
		n.YoungBytes = s.YoungBytes
		n.Threads = defaultInt(s.Threads, 48)
		n.AllocBytesPerSec = defaultFloat(s.AllocBytesPerSec, 200e6)
		n.DurationSeconds = defaultFloat(s.DurationSeconds, 60)
		n.DisableTLAB = s.DisableTLAB
	case KindBenchmark:
		if s.Benchmark == "" {
			return s, fmt.Errorf("benchmark: name required (one of %v)", dacapo.Names())
		}
		if _, err := dacapo.ByName(s.Benchmark); err != nil {
			return s, err
		}
		n.Benchmark = s.Benchmark
		n.Collector = defaultStr(s.Collector, "ParallelOld")
		n.HeapBytes = s.HeapBytes
		n.YoungBytes = s.YoungBytes
		n.Iterations = defaultInt(s.Iterations, 10)
		n.NoSystemGC = s.NoSystemGC
		n.DisableTLAB = s.DisableTLAB
	case KindClientServer:
		n.Collector = defaultStr(s.Collector, "ParallelOld")
		n.DurationSeconds = defaultFloat(s.DurationSeconds, 600)
		n.Stress = s.Stress
		if len(s.Workload) > 1 || (s.Workload != "" && (s.Workload[0] < 'A' || s.Workload[0] > 'F')) {
			return s, fmt.Errorf("workload %q: want a YCSB letter \"A\"..\"F\"", s.Workload)
		}
		n.Workload = s.Workload
	case KindAdvise:
		if s.HeapBytes <= 0 {
			return s, fmt.Errorf("advise: heap_bytes required")
		}
		if s.AllocBytesPerSec <= 0 {
			return s, fmt.Errorf("advise: alloc_bytes_per_sec required")
		}
		n.HeapBytes = s.HeapBytes
		n.AllocBytesPerSec = s.AllocBytesPerSec
		n.Threads = defaultInt(s.Threads, 48)
		n.DurationSeconds = defaultFloat(s.DurationSeconds, 300)
		n.MaxPauseMS = s.MaxPauseMS
		n.MaxPausedPct = s.MaxPausedPct
	case KindCluster:
		n.Collector = defaultStr(s.Collector, "ParallelOld")
		n.Nodes = defaultInt(s.Nodes, 3)
		n.ReplicationFactor = defaultInt(s.ReplicationFactor, 3)
		n.DurationSeconds = defaultFloat(s.DurationSeconds, 600)
		n.Stress = s.Stress
	case KindRanking:
		n.SystemGC = s.SystemGC
	case "":
		return s, fmt.Errorf("job kind required (one of %v)", Kinds())
	default:
		return s, fmt.Errorf("unknown job kind %q (want one of %v)", s.Kind, Kinds())
	}
	return n, nil
}

func defaultStr(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

func defaultInt(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}

func defaultInt64(v, d int64) int64 {
	if v <= 0 {
		return d
	}
	return v
}

func defaultFloat(v, d float64) float64 {
	if v <= 0 {
		return d
	}
	return v
}

// key returns the spec's content address: the SHA-256 of its canonical
// JSON encoding. Callers must pass a normalized spec; struct-field order
// makes the encoding deterministic. A JobSpec of scalars cannot fail to
// marshal today, but the failure path returns an error rather than
// panicking so a future spec field can never crash the daemon — the
// submit path propagates it as an HTTP 500.
func (s JobSpec) key() (string, error) {
	// Ordinary specs take the hand-rolled encoder (fastpath.go), which is
	// byte-identical to json.Marshal and allocation-free; specs whose
	// strings need JSON escaping fall back to encoding/json so the key is
	// the same either way.
	var hexBuf [64]byte
	if fastSpecKey(s, &hexBuf) {
		return string(hexBuf[:]), nil
	}
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("labd: marshal spec: %w", err)
	}
	return Digest(b), nil
}

// SpecKey normalizes a spec and returns its content address — exactly
// the key the daemon computes at submission. A fleet router hashes it
// to place the job on its owner node, so routing and caching agree on
// ownership (which is what makes single-flight hold fleet-wide: every
// identical spec converges on one node's one flight).
func SpecKey(spec JobSpec) (string, error) {
	n, err := spec.normalized()
	if err != nil {
		return "", err
	}
	return n.key()
}

// SubmitRequest is the POST /v1/jobs payload: the job plus delivery
// options that do not affect the result (and therefore stay out of the
// cache key).
type SubmitRequest struct {
	Job JobSpec `json:"job"`
	// TimeoutSeconds bounds the job's queue-plus-run time (0 = server
	// default). On expiry the job reports failure; an already-running
	// simulation still completes in the background and populates the
	// cache, so the work is never wasted.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
	// Async makes submission return 202 with the job's status URL
	// instead of blocking for the result.
	Async bool `json:"async,omitempty"`
}

// Job statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// JobInfo is the status view of a job (GET /v1/jobs/{id} and async
// submission responses).
type JobInfo struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Key is the spec's content address; identical specs share it.
	Key    string `json:"key"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// CacheHit marks jobs answered from the result cache; Coalesced marks
	// jobs deduplicated onto an identical in-flight execution; PeerHit
	// marks jobs served from a fleet peer's cache instead of recomputing.
	CacheHit  bool `json:"cache_hit,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	PeerHit   bool `json:"peer_hit,omitempty"`
	// ResultBytes is the size of the result body once done.
	ResultBytes int `json:"result_bytes,omitempty"`
	// TraceID identifies the request's trace when tracing was on;
	// resolve it at /debug/traces/{id}.
	TraceID string `json:"trace_id,omitempty"`
}

// errorBody is the JSON error envelope for non-2xx responses.
type errorBody struct {
	Error string `json:"error"`
}
