package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"jvmgc/internal/xrand"
)

func TestMeanStdDevRSD(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	// Sample stddev with n-1: sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if s := StdDev(xs); math.Abs(s-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s, want)
	}
	if r := RSD(xs); math.Abs(r-100*want/5) > 1e-12 {
		t.Errorf("RSD = %v", r)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || RSD(nil) != 0 {
		t.Error("empty slice aggregates nonzero")
	}
	if StdDev([]float64{5}) != 0 {
		t.Error("single value has nonzero stddev")
	}
	if RSD([]float64{0, 0}) != 0 {
		t.Error("zero-mean RSD not zero")
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of empty should error")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("Percentile(%v) = %v, %v", c.p, got, err)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	// Input must not be mutated.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

// TestPercentilesMatchPercentile checks the batch API gives
// bit-identical answers to the one-at-a-time calls it replaces.
func TestPercentilesMatchPercentile(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5, 2, 8, 4, 6, 0}
	ps := []float64{0, 10, 50, 90, 95, 99, 100}
	batch, err := Percentiles(xs, ps...)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		single, err := Percentile(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Errorf("Percentiles[%v] = %v, Percentile = %v", p, batch[i], single)
		}
	}
	if _, err := Percentiles(nil, 50); err == nil {
		t.Error("empty slice accepted")
	}
	if _, err := Percentiles(xs, 101); err == nil {
		t.Error("out-of-range percentile accepted")
	}
	if _, err := Percentiles(xs); err != nil {
		t.Errorf("zero percentiles rejected: %v", err)
	}
}

// percentilesSorted is the differential oracle for Percentiles: the
// sort-based implementation that selection replaced, kept here as
// bands_test.go keeps the band analysis's.
func percentilesSorted(xs []float64, ps ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p == 100 {
			out[i] = sorted[len(sorted)-1]
			continue
		}
		rank := p / 100 * float64(len(sorted)-1)
		lo := int(rank)
		frac := rank - float64(lo)
		if lo+1 >= len(sorted) {
			out[i] = sorted[lo]
			continue
		}
		out[i] = sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	return out
}

// percentileGrid spans both ends, the summary quantiles and ranks that
// fall between order statistics.
var percentileGrid = []float64{0, 0.1, 1, 5, 10, 25, 33.3, 50, 66.7, 75, 90, 95, 99, 99.9, 99.99, 100}

// randomSample draws n values of one of several shapes: spread-out
// values, few distinct values, and each of those with NaN and ±Inf mixed
// in, in random, ascending, descending or organ-pipe order. It never
// draws −0.
func randomSample(r *xrand.Rand, n int) []float64 {
	distinct := 1 + r.Intn(8)
	special := r.Bool(0.5)
	xs := make([]float64, n)
	for i := range xs {
		switch {
		case special && r.Bool(0.05):
			xs[i] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
		case distinct < 4:
			xs[i] = float64(r.Intn(distinct)) - 1 // -1, 0 (never -0), 1, ...
		default:
			xs[i] = r.LogNormal(0, 2) - 1
		}
	}
	switch r.Intn(4) {
	case 1:
		sort.Float64s(xs)
	case 2:
		sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
	case 3:
		sort.Float64s(xs)
		for i, j := 0, len(xs)-1; i < j; i, j = i+2, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	return xs
}

// TestPercentilesMatchSortedOracle holds Percentiles bit-equal to the
// sort-based oracle on randomized inputs of 1–5,000 values, duplicates,
// NaN and ±Inf included, at every percentile of the grid, asked for in
// ascending order and in a random one.
func TestPercentilesMatchSortedOracle(t *testing.T) {
	r := xrand.New(2112)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(5000)
		if trial < 40 {
			n = 1 + trial // every short length, insertion sort alone
		}
		xs := randomSample(r, n)
		in := append([]float64(nil), xs...)
		ps := percentileGrid
		if trial%2 == 1 {
			ps = append([]float64(nil), percentileGrid...)
			for i := len(ps) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				ps[i], ps[j] = ps[j], ps[i]
			}
		}
		got, err := Percentiles(xs, ps...)
		if err != nil {
			t.Fatal(err)
		}
		want := percentilesSorted(xs, ps...)
		for i, p := range ps {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d, n=%d, p%v: got %v, oracle %v", trial, n, p, got[i], want[i])
			}
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("trial %d: Percentiles reordered its input", trial)
			}
		}
	}
}

// TestPercentilesSignedZeros documents the one place selection and the
// sort may differ: −0 and +0 compare equal, so where both occur either
// may be read, and the result equals the oracle's as a number.
func TestPercentilesSignedZeros(t *testing.T) {
	xs := []float64{math.Copysign(0, -1), 1, 0, -1, math.Copysign(0, -1), 0, 2}
	got, err := Percentiles(xs, percentileGrid...)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range percentilesSorted(xs, percentileGrid...) {
		if got[i] != want {
			t.Errorf("p%v: got %v, oracle %v", percentileGrid[i], got[i], want)
		}
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := xrand.New(5)
	var xs []float64
	var w Welford
	for i := 0; i < 10000; i++ {
		x := r.LogNormal(0, 1)
		xs = append(xs, x)
		w.Add(x)
	}
	if math.Abs(w.Mean()-Mean(xs)) > 1e-9 {
		t.Errorf("Welford mean %v vs batch %v", w.Mean(), Mean(xs))
	}
	if w.Min() != slices.Min(xs) || w.Max() != slices.Max(xs) {
		t.Error("Welford min/max mismatch")
	}
	if w.N() != 10000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.N() != 0 {
		t.Error("empty Welford nonzero")
	}
}

func TestClassifyTLAB(t *testing.T) {
	cases := []struct {
		with, without float64
		want          TLABInfluence
	}{
		{100, 100, TLABNeutral},
		{100, 104, TLABNeutral},  // within 5% band
		{100, 106, TLABPositive}, // without is >5% slower: TLAB helped
		{106, 100, TLABNegative}, // with is >5% slower: TLAB hurt
		{100, 96, TLABNeutral},
	}
	for _, c := range cases {
		if got := ClassifyTLAB(c.with, c.without); got != c.want {
			t.Errorf("ClassifyTLAB(%v, %v) = %v, want %v", c.with, c.without, got, c.want)
		}
	}
}

func TestTLABInfluenceString(t *testing.T) {
	if TLABPositive.String() != "+" || TLABNegative.String() != "-" || TLABNeutral.String() != "=" {
		t.Error("influence symbols wrong")
	}
}

func TestQuickRSDScaleInvariant(t *testing.T) {
	// RSD is invariant under positive scaling.
	f := func(raw []uint16, scale uint8) bool {
		if len(raw) < 2 || scale == 0 {
			return true
		}
		var xs, ys []float64
		for _, v := range raw {
			x := float64(v) + 1
			xs = append(xs, x)
			ys = append(ys, x*float64(scale))
		}
		return math.Abs(RSD(xs)-RSD(ys)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWelfordMeanBounded(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var w Welford
		for _, v := range raw {
			w.Add(float64(v))
		}
		return w.Mean() >= w.Min()-1e-9 && w.Mean() <= w.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
