package xrand

import (
	"math"
	"sort"
	"testing"
)

func TestZipfRange(t *testing.T) {
	z := NewZipf(New(1), 1000, 0.99)
	for i := 0; i < 50000; i++ {
		v := z.at(z.Uniform())
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With theta=0.99 over 10k items, the most popular item should absorb
	// a few percent of draws and the top decile the majority.
	z := NewZipf(New(2), 10000, 0.99)
	counts := make([]int, 10000)
	const n = 500000
	for i := 0; i < n; i++ {
		counts[z.at(z.Uniform())]++
	}
	top := float64(counts[0]) / n
	if top < 0.02 {
		t.Errorf("most popular item frequency %v, want >= 0.02", top)
	}
	sorted := append([]int(nil), counts...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	decile := 0
	for _, c := range sorted[:1000] {
		decile += c
	}
	if frac := float64(decile) / n; frac < 0.5 {
		t.Errorf("top decile absorbed only %v of draws", frac)
	}
}

func TestZipfMonotoneDecreasingHead(t *testing.T) {
	z := NewZipf(New(3), 100, 0.9)
	counts := make([]int, 100)
	for i := 0; i < 300000; i++ {
		counts[z.at(z.Uniform())]++
	}
	// The head of the distribution should be ordered: item 0 strictly more
	// popular than item 5, which is more popular than item 50.
	if !(counts[0] > counts[5] && counts[5] > counts[50]) {
		t.Errorf("head not ordered: %d, %d, %d", counts[0], counts[5], counts[50])
	}
}

func TestZipfScrambledCoversDomain(t *testing.T) {
	z := NewZipf(New(4), 50, 0.99)
	seen := make(map[uint64]bool)
	for i := 0; i < 50000; i++ {
		v := z.ScrambledAt(z.Uniform())
		if v >= 50 {
			t.Fatalf("ScrambledAt out of range: %d", v)
		}
		seen[v] = true
	}
	// Hashing n values into n buckets collides; the expected coverage is
	// n·(1-1/e) ≈ 63% (YCSB's ScrambledZipfianGenerator behaves the same).
	if len(seen) < 25 {
		t.Errorf("ScrambledAt hit only %d of 50 keys", len(seen))
	}
}

func TestZipfScrambledSpreadsHotKey(t *testing.T) {
	// The hottest scrambled key should usually not be key 0.
	hot := 0
	for seed := uint64(0); seed < 8; seed++ {
		z := NewZipf(New(seed), 1000, 0.99)
		counts := make(map[uint64]int)
		for i := 0; i < 20000; i++ {
			counts[z.ScrambledAt(z.Uniform())]++
		}
		var best uint64
		bestC := -1
		for k, c := range counts {
			if c > bestC {
				best, bestC = k, c
			}
		}
		if best == 0 {
			hot++
		}
	}
	if hot > 2 {
		t.Errorf("scrambled hot key landed on 0 in %d/8 seeds", hot)
	}
}

func TestZetaStaticApproximation(t *testing.T) {
	// The large-n approximation must agree with brute force within 0.1%.
	const n = 1<<20 + 50000
	exact := 0.0
	for i := uint64(1); i <= n; i++ {
		exact += 1 / math.Pow(float64(i), 0.99)
	}
	approx := zetaStatic(n, 0.99)
	if rel := math.Abs(approx-exact) / exact; rel > 0.001 {
		t.Errorf("zetaStatic relative error %v", rel)
	}
}

func TestZetaCacheHitMatchesCold(t *testing.T) {
	// The memoized path must return the exact float64 the direct
	// computation produces, for both exact-sum and approximated sizes.
	for _, c := range []struct {
		n     uint64
		theta float64
	}{
		{1000, 0.99},
		{2, 0.99},
		{1 << 21, 0.75},
	} {
		want := zetaStatic(c.n, c.theta)
		if got := zeta(c.n, c.theta); got != want {
			t.Errorf("zeta(%d,%v) = %v, want %v", c.n, c.theta, got, want)
		}
		// Second call is the cached path.
		if got := zeta(c.n, c.theta); got != want {
			t.Errorf("cached zeta(%d,%v) = %v, want %v", c.n, c.theta, got, want)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	cases := []struct {
		n     uint64
		theta float64
	}{
		{0, 0.99},
		{10, 0},
		{10, 1},
		{10, 1.5},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d,%v): expected panic", c.n, c.theta)
				}
			}()
			NewZipf(New(1), c.n, c.theta)
		}()
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// BenchmarkNewZipf measures generator construction with the zeta cache
// warm — the steady-state cost a workload sweep pays per run. Compare
// BenchmarkZetaStatic (one cold table build) to see what memoization saves.
func BenchmarkNewZipf(b *testing.B) {
	r := New(1)
	zeta(10_000_000, 0.99) // warm the cache like a sweep's first run does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewZipf(r, 10_000_000, 0.99)
	}
}

// BenchmarkZetaStatic is the uncached table build NewZipf used to pay on
// every construction (2^20 Pow calls at the YCSB default keyspace).
func BenchmarkZetaStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = zetaStatic(10_000_000, 0.99)
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 1_000_000, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.at(z.Uniform())
	}
}
