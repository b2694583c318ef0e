// Package hdrhist implements a streaming, log-bucketed (HDR-style)
// latency histogram: O(1) record with zero allocations, memory bounded
// by the bucket count regardless of how many values are folded in, a
// deterministic merge, and quantile queries with a documented relative
// error bound.
//
// Bucketing rides the IEEE-754 double representation: for a positive
// float64, the bits shifted right by (52 - SubBucketBits) yield a key
// that increments once per 1/2^SubBucketBits step of the mantissa —
// i.e. buckets whose width is a fixed fraction of their magnitude.
// With the default SubBucketBits = 7 every bucket spans a relative
// width of 2^-7 ≈ 0.78%, so reporting a bucket's midpoint is within
// 2^-8 ≈ 0.39% of any sample inside it: quantiles carry a relative
// error of at most ±0.4%, comfortably inside the advertised ≤1% bound.
//
// Values below Min land in a dedicated sub-resolution bucket, values
// at or above Max in a saturation bucket, so Record never drops a
// sample; the exact count, sum, minimum, and maximum are tracked on
// the side, which keeps Mean exact and pins Quantile(0)/Quantile(100)
// to the true extremes.
package hdrhist

import (
	"fmt"
	"math"
	"time"
)

// Config fixes a histogram's value range and resolution. Histograms
// only merge when their configs are identical.
type Config struct {
	// SubBucketBits is the number of mantissa bits that subdivide each
	// power-of-two range. Relative bucket width is 2^-SubBucketBits.
	// Zero selects DefaultSubBucketBits.
	SubBucketBits uint
	// Min is the smallest distinguishable value; anything below it
	// (including zero and negatives) is counted in the sub-resolution
	// bucket. Zero selects DefaultMin.
	Min float64
	// Max is the upper edge of the tracked range; values at or above
	// it are counted in the saturation bucket. Zero selects DefaultMax.
	Max float64
}

// Defaults cover nanoseconds-to-hours when values are in seconds, at
// ≤1% quantile error, in about 9 thousand buckets (~72 KiB).
const (
	DefaultSubBucketBits = 7
	DefaultMin           = 1e-9
	DefaultMax           = 1e12
)

// maxBuckets caps the buckets a config may span. UnmarshalBinary takes
// its config from the input, and New sizes the segment table by the
// range the config names, so without a cap a 60-byte header could
// demand hundreds of megabytes before a single pair is read. The
// default config spans 8,929 buckets.
const maxBuckets = 1 << 20

// withDefaults resolves zero fields to the package defaults.
func (c Config) withDefaults() Config {
	if c.SubBucketBits == 0 {
		c.SubBucketBits = DefaultSubBucketBits
	}
	if c.Min == 0 {
		c.Min = DefaultMin
	}
	if c.Max == 0 {
		c.Max = DefaultMax
	}
	return c
}

// validate rejects configs the bucketing math cannot support.
func (c Config) validate() error {
	if c.SubBucketBits == 0 || c.SubBucketBits > 20 {
		return fmt.Errorf("hdrhist: SubBucketBits %d out of range [1,20]", c.SubBucketBits)
	}
	if !(c.Min > 0) || math.IsInf(c.Min, 0) {
		return fmt.Errorf("hdrhist: Min %v must be positive and finite", c.Min)
	}
	if !(c.Max > c.Min) || math.IsInf(c.Max, 0) {
		return fmt.Errorf("hdrhist: Max %v must exceed Min %v and be finite", c.Max, c.Min)
	}
	if n := c.numBuckets(); n > maxBuckets {
		return fmt.Errorf("hdrhist: range [%v, %v) at %d bits spans %d buckets, more than %d",
			c.Min, c.Max, c.SubBucketBits, n, maxBuckets)
	}
	return nil
}

// numBuckets returns the bucket count of a config whose bits and range
// are valid: one per key covering [Min, Max), plus the sub-resolution
// and saturation buckets.
func (c Config) numBuckets() int {
	shift := 52 - c.SubBucketBits
	return int(math.Float64bits(c.Max)>>shift-math.Float64bits(c.Min)>>shift) + 2
}

// Bucket counts live in fixed-size segments allocated on first touch.
// The default config spans ~9000 buckets (72 KiB dense), but any one
// process observes values in a narrow slice of that range — a JVM's
// pauses cover a dozen binades — so a dense array wastes most of its
// footprint. Segments keep Record O(1) and allocation-free once a
// value's segment exists, while an idle histogram costs only the
// segment-pointer table.
const (
	segBits = 8 // 256 buckets per segment: 2 KiB
	segSize = 1 << segBits
	segMask = segSize - 1
)

// Hist is a streaming histogram. The zero value is not usable; call New.
type Hist struct {
	cfg        Config
	shift      uint
	minKey     uint64 // bucket key of cfg.Min
	numBuckets int

	// Bucket i lives at segs[i>>segBits][i&segMask]; a nil segment is
	// all-zero. Bucket 0 is the sub-resolution bucket, bucket
	// numBuckets-1 the saturation bucket; the rest cover [Min, Max).
	segs [][]uint64

	count    uint64
	sum      float64
	min, max float64 // exact extremes, valid when count > 0
}

// New builds a histogram for the given config (zero fields take the
// package defaults). It panics on an invalid config: configs are
// compile-time constants in practice, so a bad one is a programming
// error, not an input error.
func New(cfg Config) *Hist {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	shift := 52 - cfg.SubBucketBits
	n := cfg.numBuckets()
	return &Hist{
		cfg:        cfg,
		shift:      shift,
		minKey:     math.Float64bits(cfg.Min) >> shift,
		numBuckets: n,
		segs:       make([][]uint64, (n+segSize-1)/segSize),
	}
}

// Config returns the histogram's resolved configuration.
func (h *Hist) Config() Config { return h.cfg }

// NumBuckets returns the number of buckets (the memory bound; actual
// footprint is proportional to the touched segments).
func (h *Hist) NumBuckets() int { return h.numBuckets }

// incr adds n to bucket i, allocating its segment on first touch.
func (h *Hist) incr(i int, n uint64) {
	s := h.segs[i>>segBits]
	if s == nil {
		s = make([]uint64, segSize)
		h.segs[i>>segBits] = s
	}
	s[i&segMask] += n
}

// at returns bucket i's count.
func (h *Hist) at(i int) uint64 {
	if s := h.segs[i>>segBits]; s != nil {
		return s[i&segMask]
	}
	return 0
}

// bucketIndex maps a value to its bucket. The caller has already
// rejected NaN.
func (h *Hist) bucketIndex(v float64) int {
	if v < h.cfg.Min {
		return 0
	}
	if v >= h.cfg.Max {
		return h.numBuckets - 1
	}
	key := math.Float64bits(v) >> h.shift
	return int(key-h.minKey) + 1
}

// bucketLow returns the inclusive lower edge of bucket i.
func (h *Hist) bucketLow(i int) float64 {
	switch {
	case i == 0:
		return 0
	case i == h.numBuckets-1:
		return h.cfg.Max
	default:
		return math.Float64frombits((h.minKey + uint64(i-1)) << h.shift)
	}
}

// bucketHigh returns the exclusive upper edge of bucket i.
func (h *Hist) bucketHigh(i int) float64 {
	switch {
	case i == 0:
		return h.cfg.Min
	case i == h.numBuckets-1:
		return math.Inf(1)
	default:
		return math.Float64frombits((h.minKey + uint64(i)) << h.shift)
	}
}

// representative returns the value reported for samples in bucket i:
// the bucket midpoint, clamped to the exact observed extremes so the
// open-ended edge buckets and the distribution tails never report a
// value outside [Min(), Max()].
func (h *Hist) representative(i int) float64 {
	var v float64
	switch {
	case i == 0:
		v = h.cfg.Min / 2
	case i == h.numBuckets-1:
		v = h.cfg.Max
	default:
		v = (h.bucketLow(i) + h.bucketHigh(i)) / 2
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Record folds one value into the histogram. NaN is ignored. The hot
// path performs no allocation.
func (h *Hist) Record(v float64) { h.RecordN(v, 1) }

// RecordN folds n occurrences of a value into the histogram.
func (h *Hist) RecordN(v float64, n uint64) {
	if math.IsNaN(v) || n == 0 {
		return
	}
	if h.count == 0 {
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count += n
	h.sum += v * float64(n)
	h.incr(h.bucketIndex(v), n)
}

// RecordIntended folds one coordinated-omission-corrected latency
// sample, in seconds: the elapsed time from when the request was
// *scheduled* to start (its slot in an open-loop arrival plan) to when
// it completed. Measuring from the intended start — not the actual send
// — charges queueing delay caused by a stalled service to the service,
// which is the wrk2 correction for coordinated omission. A completion
// that (through clock skew) lands before its intended start clamps to
// zero rather than recording a negative latency.
func (h *Hist) RecordIntended(intended, completed time.Time) {
	d := completed.Sub(intended).Seconds()
	if d < 0 {
		d = 0
	}
	h.Record(d)
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the exact sum of recorded values.
func (h *Hist) Sum() float64 { return h.sum }

// Mean returns the exact arithmetic mean, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the exact smallest recorded value, or 0 when empty.
func (h *Hist) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest recorded value, or 0 when empty.
func (h *Hist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-th percentile (0 ≤ q ≤ 100) using the same
// nearest-rank-with-interpolation rule as stats.Percentile, evaluated
// over bucket representatives: the result is within the per-bucket
// relative error bound (±2^-(SubBucketBits+1)) of the exact
// percentile. Quantile(0) and Quantile(100) are exact. Returns 0 when
// the histogram is empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 100 {
		return h.max
	}
	rank := q / 100 * float64(h.count-1)
	lo := uint64(rank)
	frac := rank - float64(lo)
	vlo := h.valueAtRank(lo)
	if frac == 0 || lo+1 >= h.count {
		return vlo
	}
	vhi := h.valueAtRank(lo + 1)
	return vlo*(1-frac) + vhi*frac
}

// valueAtRank returns the representative for the 0-based order
// statistic at the given rank.
func (h *Hist) valueAtRank(rank uint64) float64 {
	var cum uint64
	for si, s := range h.segs {
		if s == nil {
			continue
		}
		base := si << segBits
		for j, c := range s {
			if c == 0 {
				continue
			}
			cum += c
			if cum > rank {
				return h.representative(base + j)
			}
		}
	}
	return h.max
}

// CountAbove returns the number of recorded values whose bucket lies
// strictly above the bucket containing x — i.e. values greater than x
// up to one bucket width of resolution, trimmed by the exact maximum
// (if x ≥ Max() the answer is exactly 0).
func (h *Hist) CountAbove(x float64) uint64 {
	if h.count == 0 || math.IsNaN(x) || x >= h.max {
		return 0
	}
	idx := h.bucketIndex(x)
	var n uint64
	for si := idx >> segBits; si < len(h.segs); si++ {
		s := h.segs[si]
		if s == nil {
			continue
		}
		base := si << segBits
		for j, c := range s {
			if base+j > idx {
				n += c
			}
		}
	}
	return n
}

// Merge folds o into h. The configs must be identical; merge order
// only affects floating-point sum association, never bucket counts,
// extremes, or quantiles, and A.Merge(B) and B.Merge(A) produce
// identical histograms.
func (h *Hist) Merge(o *Hist) error {
	if o == nil || o.count == 0 {
		return nil
	}
	if h.cfg != o.cfg {
		return fmt.Errorf("hdrhist: merging incompatible configs %+v and %+v", h.cfg, o.cfg)
	}
	if h.count == 0 {
		h.min, h.max = o.min, o.max
	} else {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.count += o.count
	h.sum += o.sum
	for si, os := range o.segs {
		if os == nil {
			continue
		}
		hs := h.segs[si]
		for j, c := range os {
			if c == 0 {
				continue
			}
			if hs == nil {
				hs = make([]uint64, segSize)
				h.segs[si] = hs
			}
			hs[j] += c
		}
	}
	return nil
}

// Reset empties the histogram, keeping its configuration and buckets.
func (h *Hist) Reset() {
	h.count = 0
	h.sum = 0
	h.min, h.max = 0, 0
	for _, s := range h.segs {
		for i := range s {
			s[i] = 0
		}
	}
}

// Bucket is one non-empty bucket surfaced by ForEachBucket.
type Bucket struct {
	// Index is the bucket's position in the histogram's bucket array;
	// it keys side tables such as Exemplars.
	Index int
	// Low and High bound the bucket's values: [Low, High). The
	// sub-resolution bucket has Low 0; the saturation bucket has High
	// +Inf.
	Low, High float64
	// Count is the number of recorded values in the bucket.
	Count uint64
}

// ForEachBucket calls fn for every non-empty bucket in ascending value
// order. It is the export surface for the Prometheus histogram writer.
func (h *Hist) ForEachBucket(fn func(Bucket)) {
	for si, s := range h.segs {
		if s == nil {
			continue
		}
		base := si << segBits
		for j, c := range s {
			if c == 0 {
				continue
			}
			i := base + j
			fn(Bucket{Index: i, Low: h.bucketLow(i), High: h.bucketHigh(i), Count: c})
		}
	}
}
