package hdrhist

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"time"

	"jvmgc/internal/stats"
	"jvmgc/internal/xrand"
)

func exactMean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxRelErr is the documented quantile error bound for the default
// config (2^-8 per bucket midpoint; the advertised contract is ≤1%).
const maxRelErr = 0.01

// TestQuantileErrorBound drives the histogram with the same kind of
// log-normal latency data the client study records and checks every
// reported percentile against the exact stats.Percentile answer.
func TestQuantileErrorBound(t *testing.T) {
	rng := xrand.New(42).SplitLabeled("hdrhist/quantile")
	h := New(Config{})
	xs := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		v := rng.LogNormal(-6.5, 0.8) // ~1.5ms median service times
		xs = append(xs, v)
		h.Record(v)
	}
	for _, q := range []float64{0, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 99.99, 100} {
		exact, err := stats.Percentile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > maxRelErr {
			t.Errorf("Quantile(%v) = %v, exact %v: relative error %.4f > %v", q, got, exact, rel, maxRelErr)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(100) != h.Max() {
		t.Errorf("extreme quantiles not exact: q0=%v min=%v q100=%v max=%v",
			h.Quantile(0), h.Min(), h.Quantile(100), h.Max())
	}
	if got, want := h.Mean(), exactMean(xs); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Mean = %v, want exact %v", got, want)
	}
}

// TestCountAbove checks the exceedance counter against a brute-force
// count, within one bucket of resolution.
func TestCountAbove(t *testing.T) {
	rng := xrand.New(7).SplitLabeled("hdrhist/above")
	h := New(Config{})
	var xs []float64
	for i := 0; i < 20000; i++ {
		v := rng.LogNormal(-6.5, 0.8)
		xs = append(xs, v)
		h.Record(v)
	}
	sort.Float64s(xs)
	for _, thresh := range []float64{1e-3, 2e-3, 5e-3, 1e-2} {
		var exact uint64
		for _, x := range xs {
			if x > thresh {
				exact++
			}
		}
		got := h.CountAbove(thresh)
		// The bucketed count can disagree with the exact one only for
		// samples sharing the threshold's bucket.
		slack := uint64(0)
		loEdge, hiEdge := thresh*(1-1.0/128), thresh*(1+1.0/128)
		for _, x := range xs {
			if x >= loEdge && x <= hiEdge {
				slack++
			}
		}
		if diff := absDiff(got, exact); diff > slack {
			t.Errorf("CountAbove(%v) = %d, exact %d, slack %d", thresh, got, exact, slack)
		}
	}
	if h.CountAbove(h.Max()) != 0 {
		t.Errorf("CountAbove(max) = %d, want 0", h.CountAbove(h.Max()))
	}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// TestEmptyAndEmptyMerge covers the empty-histogram surface: zero
// answers everywhere, and merging empties in any combination is a
// no-op that stays empty.
func TestEmptyAndEmptyMerge(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatal(err)
	}
	if a.Count() != 0 || a.Sum() != 0 || a.Mean() != 0 || a.Min() != 0 || a.Max() != 0 || a.Quantile(50) != 0 {
		t.Errorf("empty-merged histogram not empty: %+v", a)
	}
	// Empty into populated and populated into empty must both equal the
	// populated original.
	c := New(Config{})
	c.Record(0.5)
	c.RecordN(0.25, 3)
	if err := c.Merge(New(Config{})); err != nil {
		t.Fatal(err)
	}
	d := New(Config{})
	if err := d.Merge(c); err != nil {
		t.Fatal(err)
	}
	if d.Count() != 4 || d.Min() != 0.25 || d.Max() != 0.5 || d.Quantile(100) != 0.5 {
		t.Errorf("merge into empty lost data: count=%d min=%v max=%v", d.Count(), d.Min(), d.Max())
	}
}

// TestMergeConfigMismatch ensures incompatible configs are rejected.
func TestMergeConfigMismatch(t *testing.T) {
	a := New(Config{})
	b := New(Config{SubBucketBits: 5})
	b.Record(1)
	if err := a.Merge(b); err == nil {
		t.Error("merging mismatched configs succeeded")
	}
}

// TestSaturation records values at and beyond Max: all land in the
// single saturation bucket, nothing is dropped, and quantiles stay
// pinned to the exact observed maximum.
func TestSaturation(t *testing.T) {
	h := New(Config{Min: 1e-6, Max: 1.0})
	for i := 0; i < 1000; i++ {
		h.Record(1.0 + float64(i))
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d, want 1000", h.Count())
	}
	buckets := 0
	h.ForEachBucket(func(b Bucket) {
		buckets++
		if b.Count != 1000 || b.Low != 1.0 || !math.IsInf(b.High, 1) {
			t.Errorf("saturation bucket = %+v", b)
		}
	})
	if buckets != 1 {
		t.Errorf("saturated values spread over %d buckets, want 1", buckets)
	}
	if h.Quantile(50) > h.Max() || h.Quantile(99) > h.Max() || h.Quantile(100) != 1000.0 {
		t.Errorf("saturated quantiles escape the observed range: p50=%v p100=%v", h.Quantile(50), h.Quantile(100))
	}
}

// TestSubResolution records values below Min (including zero and
// negatives): all are retained in the sub-resolution bucket and
// reported no higher than Min.
func TestSubResolution(t *testing.T) {
	h := New(Config{Min: 1e-3, Max: 1.0})
	for _, v := range []float64{0, 1e-9, 5e-4, -2.5} {
		h.Record(v)
	}
	h.Record(math.NaN()) // dropped, not counted
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4 (NaN must be skipped)", h.Count())
	}
	buckets := 0
	h.ForEachBucket(func(b Bucket) {
		buckets++
		if b.Count != 4 || b.Low != 0 || b.High != 1e-3 {
			t.Errorf("sub-resolution bucket = %+v", b)
		}
	})
	if buckets != 1 {
		t.Errorf("sub-resolution values spread over %d buckets, want 1", buckets)
	}
	if h.Min() != -2.5 {
		t.Errorf("exact min = %v, want -2.5", h.Min())
	}
	if q := h.Quantile(50); q > 1e-3 {
		t.Errorf("sub-resolution quantile %v above resolution floor", q)
	}
}

// TestSerializationStable pins the encoded byte layout against a
// hand-computed little-endian golden: the encoding must be identical
// on any architecture, so a histogram serialized on a big-endian
// machine decodes bit-for-bit on this one.
func TestSerializationStable(t *testing.T) {
	h := New(Config{SubBucketBits: 4, Min: 0.5, Max: 2.0})
	h.RecordN(1.0, 3)

	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build the expected bytes with explicit little-endian order.
	var want bytes.Buffer
	want.WriteString("hdr1")
	le := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			want.WriteByte(byte(v >> (8 * i)))
		}
	}
	le(4, 4)                          // SubBucketBits
	le(math.Float64bits(0.5), 8)      // cfg.Min
	le(math.Float64bits(2.0), 8)      // cfg.Max
	le(3, 8)                          // count
	le(math.Float64bits(3.0), 8)      // sum
	le(math.Float64bits(1.0), 8)      // observed min
	le(math.Float64bits(1.0), 8)      // observed max
	le(1, 4)                          // one pair
	le(uint64(h.bucketIndex(1.0)), 4) // bucket index
	le(3, 8)                          // bucket count
	if !bytes.Equal(data, want.Bytes()) {
		t.Errorf("encoding drifted from the fixed little-endian layout:\n got %x\nwant %x", data, want.Bytes())
	}

	var rt Hist
	if err := rt.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if rt.Count() != 3 || rt.Min() != 1.0 || rt.Max() != 1.0 || rt.Sum() != 3.0 {
		t.Errorf("round trip lost state: %+v", &rt)
	}
	back, err := rt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("re-encoding a decoded histogram changed the bytes")
	}
}

// TestSerializationRoundTrip round-trips a large random histogram and
// checks observable state survives exactly.
func TestSerializationRoundTrip(t *testing.T) {
	rng := xrand.New(3).SplitLabeled("hdrhist/serialize")
	h := New(Config{})
	for i := 0; i < 10000; i++ {
		h.Record(rng.LogNormal(-4, 1.5))
	}
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var rt Hist
	if err := rt.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if rt.Count() != h.Count() || rt.Min() != h.Min() || rt.Max() != h.Max() || rt.Sum() != h.Sum() {
		t.Error("round trip changed scalar state")
	}
	for _, q := range []float64{50, 95, 99, 99.9} {
		if rt.Quantile(q) != h.Quantile(q) {
			t.Errorf("round trip changed Quantile(%v): %v != %v", q, rt.Quantile(q), h.Quantile(q))
		}
	}
}

// TestUnmarshalRejectsCorruption feeds truncated and tampered inputs.
func TestUnmarshalRejectsCorruption(t *testing.T) {
	h := New(Config{})
	h.Record(1)
	h.Record(2)
	data, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"bad magic":   append([]byte("nope"), data[4:]...),
		"truncated":   data[:len(data)-1],
		"extra tail":  append(append([]byte(nil), data...), 0),
		"count lie":   tamper(data, 24, 0xFF),
		"bad bits":    tamper(data, 4, 0xFF),
		"zero pair":   tamper(data, headerSize+4, 0x00, 0, 0, 0, 0, 0, 0, 0),
		"large index": tamper(data, headerSize, 0xFF, 0xFF, 0xFF, 0xFF),
		// Bits 0 would decode as the default 7 and re-encode differently.
		"zero bits": tamper(data, 4, 0),
		// Bits 20 over the whole positive float64 range spans about 2^31
		// buckets: a 201 MB segment table before any pair is read.
		"huge range": tamper(tamper(tamper(data, 4, 20), 8, 1, 0, 0, 0, 0, 0, 0, 0),
			16, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xEF, 0x7F),
		// Two pair counts of 2^63 wrap to the header's count of 0.
		"count overflow": tamper(tamper(tamper(data, 24, 0, 0, 0, 0, 0, 0, 0, 0),
			headerSize+4, 0, 0, 0, 0, 0, 0, 0, 0x80),
			headerSize+pairSize+4, 0, 0, 0, 0, 0, 0, 0, 0x80),
	}
	for name, bad := range cases {
		var rt Hist
		if err := rt.UnmarshalBinary(bad); err == nil {
			t.Errorf("%s: corrupt input decoded without error", name)
		}
	}
}

// tamper returns a copy of data with bytes overwritten at off.
func tamper(data []byte, off int, bs ...byte) []byte {
	out := append([]byte(nil), data...)
	copy(out[off:], bs)
	return out
}

// TestMergeOrderDeterminism merges the same shards in both orders and
// requires bit-identical serialized output — the property the labd
// result cache and the parallel sweep rely on.
func TestMergeOrderDeterminism(t *testing.T) {
	build := func(seed uint64, n int) *Hist {
		h := New(Config{})
		rng := xrand.New(seed).SplitLabeled("hdrhist/merge")
		for i := 0; i < n; i++ {
			h.Record(rng.LogNormal(-5, 1))
		}
		return h
	}
	ab := build(1, 5000)
	if err := ab.Merge(build(2, 3000)); err != nil {
		t.Fatal(err)
	}
	ba := build(2, 3000)
	if err := ba.Merge(build(1, 5000)); err != nil {
		t.Fatal(err)
	}
	abBytes, err := ab.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	baBytes, err := ba.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(abBytes, baBytes) {
		t.Error("merge order changed the serialized histogram")
	}
}

// TestRecordAllocationFree is the acceptance-criteria gate: the
// steady-state record path performs zero allocations.
func TestRecordAllocationFree(t *testing.T) {
	h := New(Config{})
	rng := xrand.New(11).SplitLabeled("hdrhist/alloc")
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.LogNormal(-6, 1)
	}
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		h.Record(vals[i&1023])
		i++
	})
	if allocs != 0 {
		t.Errorf("Record allocates %v per op, want 0", allocs)
	}
}

// TestReset verifies Reset returns the histogram to its empty state
// without changing its configuration.
func TestReset(t *testing.T) {
	h := New(Config{})
	h.Record(1)
	h.Reset()
	if h.Count() != 0 || h.Quantile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("Reset left state behind: %+v", h)
	}
	h.Record(2)
	if h.Count() != 1 || h.Min() != 2 || h.Max() != 2 {
		t.Error("histogram unusable after Reset")
	}
}

// TestRecordIntended verifies the coordinated-omission form: latency is
// measured from the intended start, and skewed (negative) intervals
// clamp to zero instead of recording garbage.
func TestRecordIntended(t *testing.T) {
	h := New(Config{})
	base := time.Unix(1700000000, 0)
	h.RecordIntended(base, base.Add(250*time.Millisecond))
	if h.Count() != 1 || h.Sum() != 0.25 {
		t.Errorf("count=%d sum=%g, want 1 / 0.25", h.Count(), h.Sum())
	}
	// A request whose completion predates its intended slot (clock skew)
	// records zero, not a negative value.
	h.RecordIntended(base.Add(time.Second), base)
	if h.Count() != 2 || h.Sum() != 0.25 {
		t.Errorf("after skewed sample: count=%d sum=%g, want 2 / 0.25", h.Count(), h.Sum())
	}
	if h.Min() != 0 {
		t.Errorf("min=%g, want 0 (clamped)", h.Min())
	}
}
