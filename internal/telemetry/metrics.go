package telemetry

import (
	"sync"
	"sync/atomic"

	"jvmgc/internal/hdrhist"
)

// Metrics is a named set of counters, gauges and histograms, the one
// place this repository counts: a recording keeps its counters in one,
// and each lab-service process one that its daemon, fleet router and
// gossiper share. It is safe for concurrent use; a nil *Metrics and the
// nil handles it returns are disabled, their methods no-ops.
type Metrics struct {
	mu     sync.Mutex
	cells  map[string]*CounterHandle
	listed []*CounterHandle // first-touch order
	gauges []gauge
	hists  []*Histogram
}

type gauge struct {
	name, help string
	read       func() float64
}

// NewMetrics returns an empty set.
func NewMetrics() *Metrics { return &Metrics{cells: make(map[string]*CounterHandle)} }

// Counter is one named monotonic count.
type Counter struct {
	Name  string
	Value int64
}

// CounterHandle is one counter of a set: Add is one atomic add, with no
// lock, lookup or allocation once the counter is listed. Taking a handle
// does not list it; its first Add does (Add(0) lists it at zero), so
// exports show counters in first-touch order whether a site takes its
// handles up front or counts by name.
type CounterHandle struct {
	m      *Metrics
	name   string
	v      atomic.Int64
	listed atomic.Bool
}

// CounterHandle returns the named counter's handle, one per name.
func (m *Metrics) CounterHandle(name string) *CounterHandle {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.cells[name]
	if !ok {
		h = &CounterHandle{m: m, name: name}
		m.cells[name] = h
	}
	return h
}

// Add increments the named counter by delta.
func (m *Metrics) Add(name string, delta int64) { m.CounterHandle(name).Add(delta) }

// Counter returns the named counter's value (zero when absent).
func (m *Metrics) Counter(name string) int64 { return m.CounterHandle(name).Value() }

// Counters snapshots the listed counters in first-touch order.
func (m *Metrics) Counters() []Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Counter, len(m.listed))
	for i, h := range m.listed {
		out[i] = Counter{Name: h.name, Value: h.v.Load()}
	}
	return out
}

// Name returns the handle's counter name (empty on nil).
func (h *CounterHandle) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Add increments the handle's counter by delta.
func (h *CounterHandle) Add(delta int64) {
	if h == nil {
		return
	}
	h.v.Add(delta)
	if !h.listed.Load() && h.listed.CompareAndSwap(false, true) {
		h.m.mu.Lock()
		h.m.listed = append(h.m.listed, h)
		h.m.mu.Unlock()
	}
}

// Value returns the counter's value (zero on nil).
func (h *CounterHandle) Value() int64 {
	if h == nil {
		return 0
	}
	return h.v.Load()
}

// Gauge registers a live quantity that read reports at every export.
// MergeMetrics sums gauges, so register only quantities whose fleet
// value is the sum of the nodes' values.
func (m *Metrics) Gauge(name, help string, read func() float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges = append(m.gauges, gauge{name: name, help: help, read: read})
	m.mu.Unlock()
}

// Histogram is a set's streaming distribution: an hdrhist.Hist behind a
// mutex, keeping per-bucket exemplars once an observation brings one.
type Histogram struct {
	name, help string
	mu         sync.Mutex
	h          *hdrhist.Hist
	ex         *hdrhist.Exemplars // nil until the first exemplar
}

// Histogram registers a histogram of the default hdrhist configuration.
func (m *Metrics) Histogram(name, help string) *Histogram {
	if m == nil {
		return nil
	}
	h := &Histogram{name: name, help: help, h: hdrhist.New(hdrhist.Config{})}
	m.mu.Lock()
	m.hists = append(m.hists, h)
	m.mu.Unlock()
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Record(v)
	h.mu.Unlock()
}

// ObserveExemplar records one value and keeps label (a trace ID) as its
// bucket's exemplar, observed at ts (Unix seconds).
func (h *Histogram) ObserveExemplar(v float64, label string, ts float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.ex == nil {
		h.ex = hdrhist.NewExemplars(h.h)
	}
	h.ex.Observe(v, label, ts)
	h.mu.Unlock()
}

// registered copies the registrations, so exports read gauges unlocked.
func (m *Metrics) registered() ([]gauge, []*Histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]gauge(nil), m.gauges...), append([]*Histogram(nil), m.hists...)
}

// AddTo appends the set to a Prometheus snapshot: listed counters as
// <name>_total, gauge readings, and non-empty histograms with exemplars.
func (m *Metrics) AddTo(s *PromSnapshot) {
	if m == nil {
		return
	}
	for _, c := range m.Counters() {
		s.Counter(c.Name, "Count of "+c.Name+" events in the recording.", c.Value)
	}
	gauges, hists := m.registered()
	for _, g := range gauges {
		s.Gauge(g.name, g.help, g.read())
	}
	for _, h := range hists {
		h.mu.Lock()
		s.HistogramExemplars(h.name, h.help, h.h, h.ex)
		h.mu.Unlock()
	}
}

// MetricsState is a set in mergeable form, keyed by metric name: counter
// values, gauge readings and histogram encodings ("hdr1", base64 in
// JSON). Buckets rather than quantiles make a fleet merge exact.
type MetricsState struct {
	Counters map[string]int64   `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Hists    map[string][]byte  `json:"hists,omitempty"`
}

func newMetricsState() MetricsState {
	return MetricsState{Counters: map[string]int64{}, Gauges: map[string]float64{}, Hists: map[string][]byte{}}
}

// State snapshots the set in mergeable form.
func (m *Metrics) State() MetricsState {
	st := newMetricsState()
	if m == nil {
		return st
	}
	for _, c := range m.Counters() {
		st.Counters[c.Name] = c.Value
	}
	gauges, hists := m.registered()
	for _, g := range gauges {
		st.Gauges[g.name] = g.read()
	}
	for _, h := range hists {
		h.mu.Lock()
		st.Hists[h.name], _ = h.h.MarshalBinary() // cannot fail for a live histogram
		h.mu.Unlock()
	}
	return st
}

// MergeMetrics folds states by name: counters and gauges sum, and
// histograms merge bucket-exactly in argument order (callers fix it: the
// float sum depends on it), leaving out any that does not decode or whose
// configuration differs, as a fleet mid-upgrade can send.
func MergeMetrics(states ...MetricsState) MetricsState {
	out := newMetricsState()
	acc := make(map[string]*hdrhist.Hist)
	for _, st := range states {
		for name, v := range st.Counters {
			out.Counters[name] += v
		}
		for name, v := range st.Gauges {
			out.Gauges[name] += v
		}
		for name, b := range st.Hists {
			if h, err := hdrhist.Decode(b); err == nil && acc[name] == nil {
				acc[name] = h
			} else if err == nil {
				_ = acc[name].Merge(h) // a config mismatch leaves it unchanged
			}
		}
	}
	for name, h := range acc {
		out.Hists[name], _ = h.MarshalBinary() // cannot fail for a decoded histogram
	}
	return out
}
