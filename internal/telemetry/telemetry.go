// Package telemetry is the laboratory's flight recorder: a JFR-style
// in-memory recording of everything a simulated JVM (and the substrates
// around it) does, at a resolution the post-hoc gclog cannot offer.
//
// The paper's methodology is reading instrumentation off a running JVM —
// GC logs, -XX:+PrintSafepointStatistics, YCSB latency dumps. This
// package is the equivalent recording layer for the simulator. A
// Recorder captures three kinds of data:
//
//   - Spans: hierarchical timed intervals. Every GC pause is a span with
//     child spans per phase (TTSP, root scan, copy, mark, compact, ...),
//     each carrying attributes (collector, bytes promoted, gang size).
//     Concurrent cycle segments, Cassandra storage-engine activity and
//     experiment-sweep progress land on their own tracks.
//   - Samples: a time series on a configurable simulated-time interval —
//     eden/survivor/old occupancy, allocation rate, TLAB refill rate,
//     mutator vs GC CPU share, last time-to-safepoint.
//   - Counters: monotonic event counts (collections by kind, concurrent
//     mode failures, promotion failures, humongous allocations, ...) in
//     the recorder's Metrics set (metrics.go), the lab service's too.
//
// Exporters render a recording as Chrome trace-event JSON (chrometrace.go,
// loadable in Perfetto) and a Prometheus text-format snapshot
// (prometheus.go). The GC log is not an export: it is the JVM's own
// (internal/gclog). A recording adds what the log cannot show, such as
// each pause's phase breakdown (the pause span's children in the trace).
//
// Span, Attr and the Chrome-trace writer are also the span model of
// internal/obs's request traces, which record wall-clock spans and adopt
// a recording's GC pauses as they are; Span.Sim tells the clocks apart.
//
// Recording is disabled by default everywhere: a nil *Recorder is a valid
// recorder whose methods are no-ops, so instrumented hot paths pay only a
// nil check. All emission points in the simulator are additionally
// read-only with respect to simulation state (no RNG draws, no mutator
// advances), so attaching a recorder never changes simulation results.
//
// A Recorder is safe for concurrent use (the core experiment runner fans
// simulations across goroutines); deterministic, byte-identical exports
// are guaranteed when emission order is deterministic, which holds for
// every single-JVM run and for the sequential experiment runners.
package telemetry

import (
	"sync"
	"time"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// Config parameterizes a Recorder.
type Config struct {
	// SampleInterval is the simulated-time spacing of heap/CPU samples;
	// zero or negative disables time-series sampling (spans and counters
	// are still recorded).
	SampleInterval simtime.Duration
}

// SpanID identifies a recorded span; the zero SpanID means "no span" and
// is what every emission returns on a nil recorder.
type SpanID int32

// Well-known track names. Emission sites use these so exporters can find
// GC activity without guessing.
const (
	// TrackGC holds stop-the-world pause spans (with phase children).
	TrackGC = "gc"
	// TrackConcurrent holds concurrent cycle segments (mark, sweep).
	TrackConcurrent = "concurrent"
	// TrackCassandra holds storage-engine activity (replay, flush,
	// compaction).
	TrackCassandra = "cassandra"
	// TrackClient holds YCSB client-side activity.
	TrackClient = "client"
	// TrackCore holds experiment-runner progress spans.
	TrackCore = "core"
)

// Attribute keys of a GC span; the Chrome trace carries them as the
// span's args.
const (
	AttrCause      = "cause"
	AttrCollector  = "collector"
	AttrHeapBefore = "heap_before"
	AttrHeapAfter  = "heap_after"
	AttrPromoted   = "promoted"
)

// Attr is one key/value attribute on a span, either a string or a
// number. Numbers keep byte volumes exact up to 2^53.
type Attr struct {
	Key   string  `json:"key"`
	Str   string  `json:"str,omitempty"`
	Num   float64 `json:"num,omitempty"`
	IsNum bool    `json:"is_num,omitempty"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Str: value} }

// Num builds a numeric attribute.
func Num(key string, value float64) Attr { return Attr{Key: key, Num: value, IsNum: true} }

// ByteCount builds a numeric attribute from a byte volume.
func ByteCount(key string, b machine.Bytes) Attr { return Num(key, float64(b)) }

// Span is one recorded interval on a named track, in simulated time
// (the flight recorder's spans) or wall time (a request trace's own
// spans, see internal/obs). Span i of a recording or trace has SpanID
// i+1.
type Span struct {
	// Track groups spans into display rows ("gc", "concurrent",
	// "cassandra", "core", "sched", ...).
	Track string `json:"track"`
	// Name is the span label ("GC (young)", "ttsp", "copy", ...).
	Name string `json:"name"`
	// Start and Duration are nanoseconds; Start is the offset from the
	// span's clock origin (simulation start, or the trace's start).
	Start    time.Duration `json:"start_ns"`
	Duration time.Duration `json:"duration_ns"`
	// Parent is the enclosing span (phase spans point at their pause),
	// zero for top-level spans.
	Parent SpanID `json:"parent,omitempty"`
	// Sim marks spans measured in simulated time. The two clocks are
	// unrelated, so exporters keep them apart.
	Sim   bool   `json:"sim,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// seconds converts a span offset to seconds as simtime does,
// float64(ns)/1e9. time.Duration.Seconds splits whole and fractional
// seconds and differs from it in the last bit for some offsets, which
// would move the pinned exports.
func seconds(d time.Duration) float64 { return simtime.Duration(d).Seconds() }

// Attr returns the named attribute and whether it exists.
func (s Span) Attr(key string) (Attr, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// Sample is one point of the heap/CPU time series.
type Sample struct {
	At simtime.Time
	// Occupancy of the three spaces plus the whole heap.
	Eden, Survivor, Old, Heap machine.Bytes
	// AllocRate is the effective allocation rate (configured rate scaled
	// by the mutator progress multiplier), bytes/second.
	AllocRate float64
	// TLABRefillRate is the aggregate TLAB refill frequency implied by
	// the allocation rate (refills/second; zero with TLABs off).
	TLABRefillRate float64
	// MutatorUtil is the mutator progress multiplier in [0,1]; zero while
	// the world is stopped.
	MutatorUtil float64
	// GCCPU is the share of machine cores working for the collector
	// (concurrent gang while a cycle runs, the full gang during a pause).
	GCCPU float64
	// TTSP is the most recent time-to-safepoint observed before this
	// sample.
	TTSP simtime.Duration
}

// Recorder accumulates a recording. The zero value is NOT ready; use New.
// A nil *Recorder is a valid disabled recorder: every method is a no-op
// and Enabled reports false.
type Recorder struct {
	cfg     Config
	metrics *Metrics

	mu      sync.Mutex
	spans   []Span
	samples []Sample
}

// New returns an empty recorder.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, metrics: NewMetrics()}
}

// Metrics returns the recording's counter set (nil on nil).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.metrics
}

// SampleInterval returns the configured sampling interval (zero on nil or
// when sampling is disabled).
func (r *Recorder) SampleInterval() simtime.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.SampleInterval
}

// Span records a completed simulated-time interval and returns its ID
// (zero on nil).
func (r *Recorder) Span(track, name string, start simtime.Time, d simtime.Duration, parent SpanID, attrs ...Attr) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		Track: track, Name: name, Start: time.Duration(start), Duration: d.Std(),
		Parent: parent, Sim: true, Attrs: attrs,
	})
	id := SpanID(len(r.spans))
	r.mu.Unlock()
	return id
}

// Sample appends one time-series point (no-op on nil).
func (r *Recorder) Sample(s Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// Spans returns the recorded spans in emission order. The slice is owned
// by the recorder; callers must not modify it.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// Samples returns the recorded time series in emission order.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.samples
}

// TrackSpans returns the top-level (parentless) spans of one track.
func (r *Recorder) TrackSpans(track string) []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for _, s := range r.Spans() {
		if s.Track == track && s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}
