package hdrhist

import "math"

// Exemplar is one retained sample attached to a histogram bucket: the
// exact observed value plus an opaque label (in practice a trace ID) and
// a unix-seconds timestamp. Exemplars are what let an operator jump from
// a bad latency bucket on a dashboard to the one request that landed in
// it (OpenMetrics exemplar semantics).
type Exemplar struct {
	// Value is the exact observation (inside the bucket's bounds).
	Value float64
	// Label is the caller's correlation handle, typically a trace ID.
	Label string
	// TS is the observation's unix time in seconds (0 = unknown).
	TS float64
}

// Exemplars couples a Hist with per-bucket exemplar retention: Observe
// records into the histogram exactly like Hist.Record and additionally
// retains the sample as its bucket's exemplar (latest observation wins,
// matching Prometheus client behaviour). Memory is bounded by the bucket
// count; buckets that never saw a labeled observation carry none.
//
// Exemplars is not safe for concurrent use; callers serialize access the
// same way they serialize the underlying Hist.
type Exemplars struct {
	h     *Hist
	slots []Exemplar
	set   []bool
}

// NewExemplars returns an exemplar tracker over h. The histogram remains
// usable directly; only observations made through Observe leave an
// exemplar behind.
func NewExemplars(h *Hist) *Exemplars {
	return &Exemplars{
		h:     h,
		slots: make([]Exemplar, h.numBuckets),
		set:   make([]bool, h.numBuckets),
	}
}

// Observe folds v into the histogram and retains {v, label, ts} as the
// exemplar for v's bucket. An empty label records the value without
// touching the exemplar slot; NaN is ignored entirely.
func (e *Exemplars) Observe(v float64, label string, ts float64) {
	if math.IsNaN(v) {
		return
	}
	e.h.Record(v)
	if label == "" {
		return
	}
	i := e.h.bucketIndex(v)
	e.slots[i] = Exemplar{Value: v, Label: label, TS: ts}
	e.set[i] = true
}

// For returns the exemplar retained for the bucket at the given index
// (see Bucket.Index) and whether one exists.
func (e *Exemplars) For(index int) (Exemplar, bool) {
	if e == nil || index < 0 || index >= len(e.slots) || !e.set[index] {
		return Exemplar{}, false
	}
	return e.slots[index], true
}
