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
//     mode failures, promotion failures, humongous allocations, ...).
//
// Exporters render a recording as Chrome trace-event JSON (chrometrace.go,
// loadable in Perfetto), a Prometheus text-format snapshot
// (prometheus.go), and a HotSpot-flavoured unified GC log (unifiedlog.go)
// that internal/gclog.Parse round-trips.
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

// DefaultConfig returns the default recording configuration: 100 ms
// sampling, comparable to -Xlog:gc+heap periodic logging.
func DefaultConfig() Config {
	return Config{SampleInterval: 100 * simtime.Millisecond}
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

// Attribute keys shared between emission sites and the unified-log
// exporter.
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
	Key   string
	Str   string
	Num   float64
	IsNum bool
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Str: value} }

// Num builds a numeric attribute.
func Num(key string, value float64) Attr { return Attr{Key: key, Num: value, IsNum: true} }

// ByteCount builds a numeric attribute from a byte volume.
func ByteCount(key string, b machine.Bytes) Attr { return Num(key, float64(b)) }

// Span is one recorded interval on a named track.
type Span struct {
	// Track groups spans into display rows ("gc", "concurrent",
	// "cassandra", "core", ...).
	Track string
	// Name is the span label ("GC (young)", "ttsp", "copy", ...).
	Name     string
	Start    simtime.Time
	Duration simtime.Duration
	// Parent is the enclosing span (phase spans point at their pause),
	// zero for top-level spans.
	Parent SpanID
	Attrs  []Attr
}

// End returns the instant the span finished.
func (s Span) End() simtime.Time { return s.Start.Add(s.Duration) }

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

// Counter is one named monotonic count.
type Counter struct {
	Name  string
	Value int64
}

// Recorder accumulates a recording. The zero value is NOT ready; use New.
// A nil *Recorder is a valid disabled recorder: every method is a no-op
// and Enabled reports false.
type Recorder struct {
	cfg Config

	mu         sync.Mutex
	spans      []Span
	samples    []Sample
	counters   []Counter
	counterIdx map[string]int
}

// New returns an empty recorder.
func New(cfg Config) *Recorder {
	return &Recorder{cfg: cfg, counterIdx: make(map[string]int)}
}

// Enabled reports whether the recorder records anything (false on nil).
func (r *Recorder) Enabled() bool { return r != nil }

// SampleInterval returns the configured sampling interval (zero on nil or
// when sampling is disabled).
func (r *Recorder) SampleInterval() simtime.Duration {
	if r == nil {
		return 0
	}
	return r.cfg.SampleInterval
}

// Span records a completed interval and returns its ID (zero on nil).
// Spans must be recorded in non-decreasing start order per track for the
// unified-log export to round-trip; the simulator's emission points
// guarantee that naturally.
func (r *Recorder) Span(track, name string, start simtime.Time, d simtime.Duration, parent SpanID, attrs ...Attr) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{
		Track: track, Name: name, Start: start, Duration: d,
		Parent: parent, Attrs: attrs,
	})
	id := SpanID(len(r.spans))
	r.mu.Unlock()
	return id
}

// Add increments the named counter by delta (no-op on nil).
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[r.counterSlot(name)].Value += delta
	r.mu.Unlock()
}

// counterSlot resolves (creating if needed) the slice index of the named
// counter. Callers must hold r.mu.
func (r *Recorder) counterSlot(name string) int {
	i, ok := r.counterIdx[name]
	if !ok {
		i = len(r.counters)
		r.counters = append(r.counters, Counter{Name: name})
		r.counterIdx[name] = i
	}
	return i
}

// CounterHandle is a pre-registered reference to one counter. Hot paths
// that increment the same counter many times register a handle once and
// increment through it: after the first Add the handle carries the
// counter's slice index, so every subsequent increment is an indexed add
// under the mutex instead of a map lookup per call.
//
// Index resolution is deferred to the first Add (not registration) so that
// counters still appear in exporters in first-touch order and untouched
// counters stay invisible — byte-identical exports with or without
// handles. A handle obtained from a nil Recorder is nil, and Add on a nil
// handle is a no-op, mirroring the nil-Recorder contract.
type CounterHandle struct {
	r        *Recorder
	name     string
	idx      int
	resolved bool
}

// CounterHandle registers a handle for the named counter (nil on a nil
// recorder).
func (r *Recorder) CounterHandle(name string) *CounterHandle {
	if r == nil {
		return nil
	}
	return &CounterHandle{r: r, name: name, idx: -1}
}

// Name returns the counter name the handle is bound to (empty on nil).
func (h *CounterHandle) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Add increments the handle's counter by delta (no-op on nil).
func (h *CounterHandle) Add(delta int64) {
	if h == nil {
		return
	}
	r := h.r
	r.mu.Lock()
	if !h.resolved {
		h.idx = r.counterSlot(h.name)
		h.resolved = true
	}
	r.counters[h.idx].Value += delta
	r.mu.Unlock()
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

// Counters returns a snapshot of the counters in first-touch order. It
// is a copy: Add updates counter values in place, and a live daemon
// exports them while its requests keep counting.
func (r *Recorder) Counters() []Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Counter(nil), r.counters...)
}

// Counter returns the named counter's value (zero when absent or nil).
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.counterIdx[name]; ok {
		return r.counters[i].Value
	}
	return 0
}

// Children returns the direct child spans of the given span, in emission
// order.
func (r *Recorder) Children(id SpanID) []Span {
	if r == nil || id == 0 {
		return nil
	}
	var out []Span
	for _, s := range r.Spans() {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
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
