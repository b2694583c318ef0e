// Package obs is the laboratory's service observability layer:
// request-scoped distributed tracing, an SLO burn-rate monitor, and the
// glue that lets both ride the existing telemetry/Prometheus surfaces.
//
// The paper's whole methodology is reading instrumentation off a running
// system; internal/telemetry reproduced that for the simulated JVM. This
// package does the same for the service around it (internal/labd): a
// trace follows one request from the client's traceparent header through
// the daemon's cache lookup, queue wait and sweep worker into the
// simulation itself — the simulate span adopts the flight recorder's GC
// pause spans as children, so one trace shows the whole causal chain
// from HTTP edge to safepoint. Traces record the flight recorder's own
// span type, telemetry.Span, with its Sim flag telling the two clocks
// apart, and export through its Chrome-trace writer.
//
// Contracts, mirroring telemetry:
//
//   - A nil *Tracer and a nil *Trace are valid disabled instances; every
//     method is a no-op costing one nil check, so untraced hot paths pay
//     nothing.
//   - Recording a trace never perturbs simulation results: span capture
//     is read-only with respect to simulation state, and the flight
//     recorder it links to carries the same guarantee (byte-identical
//     result digests with tracing on or off).
//   - Completed traces land in a bounded Store (ring buffer plus
//     slowest-K retention); memory never grows with traffic.
package obs

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"jvmgc/internal/telemetry"
)

// TraceID is a W3C trace-context trace ID: 16 bytes, hex-rendered.
type TraceID [16]byte

// SpanID is a W3C trace-context span ID: 8 bytes, hex-rendered.
type SpanID [8]byte

// IsZero reports whether the ID is the all-zero (invalid) ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is the all-zero (invalid) ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// IDs render as hex strings in JSON (the wire and debug-endpoint form),
// not as byte arrays.

func (t TraceID) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }
func (s SpanID) MarshalJSON() ([]byte, error)  { return json.Marshal(s.String()) }

func (t *TraceID) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	if len(str) != 32 {
		return fmt.Errorf("obs: trace id %q: want 32 hex digits", str)
	}
	_, err := hex.Decode(t[:], []byte(str))
	return err
}

func (s *SpanID) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	if len(str) != 16 {
		return fmt.Errorf("obs: span id %q: want 16 hex digits", str)
	}
	_, err := hex.Decode(s[:], []byte(str))
	return err
}

// ParseTraceID decodes a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return t, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	if t.IsZero() {
		return t, fmt.Errorf("obs: trace id %q is the invalid all-zero id", s)
	}
	return t, nil
}

// Traceparent renders the W3C traceparent header for a trace/span pair:
// version 00, sampled flag set.
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent decodes a version-00 traceparent header. ok is false
// for anything W3C Trace Context says to ignore: a malformed header, a
// field that is not lowercase hex, or the invalid all-zero IDs.
func ParseTraceparent(h string) (t TraceID, s SpanID, ok bool) {
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(h) != 55 || h[0] != '0' || h[1] != '0' ||
		h[2] != '-' || h[35] != '-' || h[52] != '-' ||
		!lowerHex(h[3:35]) || !lowerHex(h[36:52]) || !lowerHex(h[53:]) {
		return t, s, false
	}
	// Both fields are lowercase hex by now, so decoding cannot fail.
	_, _ = hex.Decode(t[:], []byte(h[3:35]))
	_, _ = hex.Decode(s[:], []byte(h[36:52]))
	if t.IsZero() || s.IsZero() {
		return t, s, false
	}
	return t, s, true
}

// lowerHex reports whether s is all lowercase hex digits (HEXDIGLC), the
// only digits a version-00 traceparent may carry.
func lowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// IDGen mints W3C trace and span IDs from a splitmix64 stream. It is safe
// for concurrent use; a fixed seed yields a reproducible ID sequence
// (tests), seed 0 derives one from the wall clock.
type IDGen struct {
	state atomic.Uint64
}

// NewIDGen returns a generator. Seed 0 selects a time-derived seed.
func NewIDGen(seed uint64) *IDGen {
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	g := &IDGen{}
	g.state.Store(seed)
	return g
}

// next returns the next non-zero 64-bit value of the stream.
func (g *IDGen) next() uint64 {
	for {
		x := g.state.Add(0x9e3779b97f4a7c15)
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if x != 0 {
			return x
		}
	}
}

// TraceID mints a fresh trace ID.
func (g *IDGen) TraceID() TraceID {
	var t TraceID
	putUint64(t[:8], g.next())
	putUint64(t[8:], g.next())
	return t
}

// SpanID mints a fresh span ID.
func (g *IDGen) SpanID() SpanID {
	var s SpanID
	putUint64(s[:], g.next())
	return s
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// Config parameterizes a Tracer. Zero values select the defaults.
type Config struct {
	// Capacity bounds the completed-trace ring buffer (default 256).
	Capacity int
	// SlowestK traces are retained beyond ring eviction (default 16).
	SlowestK int
	// MaxSpans bounds the spans captured per trace; past it spans are
	// dropped and counted (default 512).
	MaxSpans int
	// Seed fixes the ID stream for reproducible tests (0 = from clock).
	Seed uint64
	// Now is the wall clock (nil = time.Now); tests inject a fake.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SlowestK <= 0 {
		c.SlowestK = 16
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Tracer mints traces and owns the store of completed ones. A nil
// *Tracer is a valid disabled tracer: StartTrace returns a nil *Trace
// whose methods are all no-ops.
type Tracer struct {
	cfg   Config
	ids   *IDGen
	store *Store
}

// NewTracer builds a tracer.
func NewTracer(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		cfg:   cfg,
		ids:   NewIDGen(cfg.Seed),
		store: newStore(cfg.Capacity, cfg.SlowestK),
	}
}

// Enabled reports whether the tracer records anything (false on nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Store returns the completed-trace store (nil on a nil tracer).
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// StartTrace begins a trace named name. A zero tid mints a fresh trace
// ID; a non-zero tid (from an inbound traceparent) adopts the caller's
// identity, and remoteParent records the client's span the trace links
// under. Returns nil on a nil tracer.
func (t *Tracer) StartTrace(name string, tid TraceID, remoteParent SpanID) *Trace {
	if t == nil {
		return nil
	}
	if tid.IsZero() {
		tid = t.ids.TraceID()
	}
	tr := &Trace{
		tracer: t,
		start:  t.cfg.Now(),
		data: TraceData{
			ID:         tid,
			Name:       name,
			RemoteSpan: remoteParent,
		},
	}
	tr.data.Start = tr.start
	return tr
}

// TraceData is the immutable record of a completed trace.
type TraceData struct {
	ID   TraceID `json:"-"`
	Name string  `json:"name"`
	// RemoteSpan is the inbound parent (zero when the trace was minted
	// locally).
	RemoteSpan SpanID        `json:"remote_span,omitempty"`
	Start      time.Time     `json:"start"`
	Duration   time.Duration `json:"duration_ns"`
	Status     string        `json:"status"` // "ok" | "error"
	Error      string        `json:"error,omitempty"`
	// Spans holds every captured span except the root (which is
	// synthesized from Name/Duration/Attrs). As in a flight recording,
	// span i has ID i+1; Parent 0 is the root. Dropped counts spans past
	// the per-trace bound.
	Spans   []telemetry.Span `json:"spans"`
	Dropped int              `json:"dropped,omitempty"`
	// Attrs annotate the root span (job kind, cache disposition, ...).
	Attrs []telemetry.Attr `json:"attrs,omitempty"`

	// retention bookkeeping, guarded by the owning store's mutex.
	inRing, inSlow bool
}

// Trace is one in-flight trace being assembled. All methods are nil-safe
// no-ops, so call sites carry no conditionals. A Trace is safe for
// concurrent use (the daemon touches it from the HTTP goroutine, the
// scheduler watcher and the executing worker).
type Trace struct {
	tracer *Tracer
	start  time.Time

	mu       sync.Mutex
	data     TraceData
	finished bool
}

// ID returns the trace's identity (zero on nil).
func (tr *Trace) ID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.data.ID
}

// Annotate adds attributes to the root span.
func (tr *Trace) Annotate(attrs ...telemetry.Attr) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if !tr.finished {
		tr.data.Attrs = append(tr.data.Attrs, attrs...)
	}
	tr.mu.Unlock()
}

// Add records a completed span under the per-trace bound and returns
// its ID, zero when the trace is nil, finished or full. A wall-clock
// span's Start is its offset from the trace start; a simulated span
// (Sim true) keeps its simulation's offsets. A zero Parent attaches the
// span to the root.
func (tr *Trace) Add(s telemetry.Span) telemetry.SpanID {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.finished || len(tr.data.Spans) >= tr.tracer.cfg.MaxSpans {
		tr.data.Dropped++
		return 0
	}
	tr.data.Spans = append(tr.data.Spans, s)
	return telemetry.SpanID(len(tr.data.Spans))
}

// SpanBetween records a wall-clock span from begin to end, offset
// against the trace start.
func (tr *Trace) SpanBetween(name, track string, parent telemetry.SpanID, begin, end time.Time, attrs ...telemetry.Attr) telemetry.SpanID {
	if tr == nil {
		return 0
	}
	return tr.Add(telemetry.Span{
		Track: track, Name: name, Start: begin.Sub(tr.start), Duration: end.Sub(begin),
		Parent: parent, Attrs: attrs,
	})
}

// ActiveSpan is an open wall-clock span; End records it.
type ActiveSpan struct {
	tr     *Trace
	name   string
	track  string
	parent telemetry.SpanID
	begin  time.Time
	attrs  []telemetry.Attr
}

// StartSpan opens a wall-clock span beginning now.
func (tr *Trace) StartSpan(name, track string, parent telemetry.SpanID, attrs ...telemetry.Attr) ActiveSpan {
	if tr == nil {
		return ActiveSpan{}
	}
	return ActiveSpan{
		tr: tr, name: name, track: track, parent: parent,
		begin: tr.tracer.cfg.Now(), attrs: attrs,
	}
}

// End records the span with its measured duration plus any extra
// attributes, returning its ID (zero on a disabled trace).
func (a ActiveSpan) End(extra ...telemetry.Attr) telemetry.SpanID {
	if a.tr == nil {
		return 0
	}
	return a.tr.SpanBetween(a.name, a.track, a.parent,
		a.begin, a.tr.tracer.cfg.Now(), append(a.attrs, extra...)...)
}

// Finish completes the trace: the root duration is fixed, the status set
// from err, and the snapshot handed to the tracer's store. Finish is
// idempotent; only the first call takes effect.
func (tr *Trace) Finish(err error) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	tr.data.Duration = tr.tracer.cfg.Now().Sub(tr.start)
	if err != nil {
		tr.data.Status = "error"
		tr.data.Error = err.Error()
	} else {
		tr.data.Status = "ok"
	}
	snapshot := tr.data
	tr.mu.Unlock()
	tr.tracer.store.add(&snapshot)
}

// WriteChromeTrace renders one trace as Chrome trace-event JSON through
// the flight recorder's writer: the root and the wall-clock spans render
// as process 1, and the adopted simulation spans, whose timestamps are
// simulated time on an unrelated clock, as process 2.
func WriteChromeTrace(w io.Writer, td *TraceData) error {
	id := td.ID.String()
	root := telemetry.Span{
		Track: "request", Name: td.Name, Duration: td.Duration,
		Attrs: append([]telemetry.Attr{telemetry.Str("trace_id", id), telemetry.Str("status", td.Status)}, td.Attrs...),
	}
	return telemetry.WriteChromeTrace(w,
		[2]string{"labd request " + id, "simulation (simulated time)"},
		append([]telemetry.Span{root}, td.Spans...), nil)
}
