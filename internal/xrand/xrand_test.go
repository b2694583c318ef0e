package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d identical draws", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Error("sibling splits produced identical streams")
	}
}

func TestSplitLabeledStableAcrossLabels(t *testing.T) {
	// The parent stream after a labeled split must not depend on the label.
	p1 := New(9)
	p2 := New(9)
	p1.SplitLabeled("alpha")
	p2.SplitLabeled("beta")
	if p1.Uint64() != p2.Uint64() {
		t.Error("label choice perturbed the parent stream")
	}
	// But the derived streams must differ.
	q := New(9)
	a := q.SplitLabeled("alpha")
	q2 := New(9)
	b := q2.SplitLabeled("beta")
	if a.Uint64() == b.Uint64() {
		t.Error("different labels produced identical child streams")
	}
	// And the same label must reproduce the same child.
	r1 := New(9).SplitLabeled("x")
	r2 := New(9).SplitLabeled("x")
	if r1.Uint64() != r2.Uint64() {
		t.Error("same label did not reproduce the child stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("Intn(7) hit only %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(13)
	counts := make([]int, 4)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[r.Uint64n(4)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.25) > 0.01 {
			t.Errorf("bucket %d frac = %v", i, frac)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := Polar(r.PolarPair())
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v", variance)
	}
}

func TestExpMean(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(3.0)
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.05 {
		t.Errorf("exp mean = %v, want ~3", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(23)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal produced %v", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := New(31)
	for i := 0; i < 10000; i++ {
		v := r.Jitter(100, 0.05)
		if v < 95 || v > 105 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestQuickUint64nInRange(t *testing.T) {
	r := New(41)
	f := func(n uint32) bool {
		if n == 0 {
			return true
		}
		return r.Uint64n(uint64(n)) < uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickMul64MatchesBigShift(t *testing.T) {
	// For operands that fit in 32 bits the high word must be zero and the
	// low word the plain product.
	f := func(a, b uint32) bool {
		hi, lo := mul64(uint64(a), uint64(b))
		return hi == 0 && lo == uint64(a)*uint64(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
