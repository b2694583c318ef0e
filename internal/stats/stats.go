// Package stats implements the statistical post-processing the paper
// applies to its measurements: relative standard deviations for the
// benchmark-stability selection (Table 2), latency-band analysis for the
// client-side study (Tables 5–7), and the ±5% TLAB influence classifier
// (Table 4).
package stats

import (
	"errors"
	"math"
	"math/bits"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator) of xs,
// or 0 when fewer than two values are present.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// RSD returns the relative standard deviation of xs as a percentage
// (100·σ/μ), the stability metric of the paper's Table 2. It returns 0
// for fewer than two values or a zero mean.
func RSD(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return 100 * StdDev(xs) / m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// nearest-rank interpolation. It returns an error for an empty slice or a
// p outside [0, 100].
func Percentile(xs []float64, p float64) (float64, error) {
	out, err := Percentiles(xs, p)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Percentiles returns one value per requested percentile, from one copy
// of xs. Each percentile interpolates between the two order statistics
// at its rank, which it finds by selection rather than by sorting the
// copy, so the values equal those read from the sorted slice. The order
// is sort.Float64s's, NaNs first; −0 and +0 compare equal, so where both
// occur either may be read. Percentiles asked for in ascending order, as
// p50/p95/p99 are, each search only above the previous one's rank.
// Errors mirror Percentile's.
func Percentiles(xs []float64, ps ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, errors.New("stats: Percentile of empty slice")
	}
	for _, p := range ps {
		if p < 0 || p > 100 {
			return nil, errors.New("stats: percentile out of [0,100]")
		}
	}
	a := append([]float64(nil), xs...)
	out := make([]float64, len(ps))
	below := 0 // a[:below] holds the below smallest values
	for i, p := range ps {
		// p = 100 gives rank len(a)-1 exactly: the maximum.
		rank := p / 100 * float64(len(a)-1)
		lo := int(rank)
		frac := rank - float64(lo)
		if lo < below {
			below = 0
		}
		selectRank(a[below:], lo-below)
		below = lo
		if lo+1 >= len(a) {
			out[i] = a[lo]
			continue
		}
		// Selection leaves no smaller value after lo, so the next order
		// statistic is the least of them.
		next := a[lo+1]
		for _, x := range a[lo+2:] {
			if less(x, next) {
				next = x
			}
		}
		out[i] = a[lo]*(1-frac) + next*frac
	}
	return out, nil
}

// less is sort.Float64s's order: NaNs before every number.
func less(x, y float64) bool { return x < y || (x != x && y == y) }

// selectRank reorders a so that a[k] holds the value sorting would put
// there, with no greater value before it and no smaller one after it.
// It is quickselect with median-of-three pivots and insertion sort for
// ranges of 12 values or fewer; a search still open after
// 2·log2(len(a)) partitions sorts what is left, which bounds the worst
// case at O(n log n).
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 12; budget-- {
		if budget == 0 {
			sort.Float64s(a[lo:hi])
			return
		}
		p := lo + partition(a[lo:hi])
		switch {
		case k < p:
			hi = p
		case k > p:
			lo = p + 1
		default:
			return
		}
	}
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// partition moves the median of s's first, middle and last values to
// the index it returns, with no greater value before it and no smaller
// one after it. Both scans stop on values equal to the pivot, so runs of
// duplicates split evenly. s must hold at least three values.
func partition(s []float64) int {
	m, h := len(s)/2, len(s)-1
	if less(s[m], s[0]) {
		s[m], s[0] = s[0], s[m]
	}
	if less(s[h], s[m]) {
		s[h], s[m] = s[m], s[h]
		if less(s[m], s[0]) {
			s[m], s[0] = s[0], s[m]
		}
	}
	s[0], s[m] = s[m], s[0]
	v := s[0]
	i, j := 0, len(s)
	for {
		for i++; i < h && less(s[i], v); i++ {
		}
		for j--; less(v, s[j]); j-- {
		}
		if i >= j {
			break
		}
		s[i], s[j] = s[j], s[i]
	}
	s[0], s[j] = s[j], s[0]
	return j
}

// Welford is a streaming mean/min/max accumulator, used where the
// million-point client runs would be wasteful to buffer.
type Welford struct {
	n        int64
	mean     float64
	min, max float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.mean += (x - w.mean) / float64(w.n)
}

// N returns the number of values folded in.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest value seen (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest value seen (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// TLABInfluence is the paper's Table 4 classification of whether enabling
// the TLAB helped.
type TLABInfluence int

// Influence values, rendered as the paper's "+", "=", "-".
const (
	TLABNeutral  TLABInfluence = iota // "=": within the deviation band
	TLABPositive                      // "+": enabling TLAB improved time
	TLABNegative                      // "-": enabling TLAB degraded time
)

// String renders the influence symbol used in Table 4.
func (t TLABInfluence) String() string {
	switch t {
	case TLABPositive:
		return "+"
	case TLABNegative:
		return "-"
	default:
		return "="
	}
}

// ClassifyTLAB applies the paper's §3.4 rule: with deviation = 5% of the
// average of the two execution times, TLAB is positive when the run
// without TLAB took longer than the run with TLAB plus the deviation,
// negative in the symmetric case, neutral otherwise.
func ClassifyTLAB(withTLAB, withoutTLAB float64) TLABInfluence {
	dev := 0.05 * (withTLAB + withoutTLAB) / 2
	switch {
	case withoutTLAB > withTLAB+dev:
		return TLABPositive
	case withTLAB > withoutTLAB+dev:
		return TLABNegative
	default:
		return TLABNeutral
	}
}
