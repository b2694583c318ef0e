package stats

import (
	"math"
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
	if _, _, err := MinMax(nil); err == nil {
		t.Error("MinMax of empty should error")
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of empty should error")
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v, %v", min, max, err)
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

// TestPercentilesMatchPercentile checks the sort-once batch API gives
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
	if math.Abs(w.StdDev()-StdDev(xs)) > 1e-9 {
		t.Errorf("Welford stddev %v vs batch %v", w.StdDev(), StdDev(xs))
	}
	min, max, _ := MinMax(xs)
	if w.Min() != min || w.Max() != max {
		t.Error("Welford min/max mismatch")
	}
	if w.N() != 10000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.StdDev() != 0 || w.N() != 0 {
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
