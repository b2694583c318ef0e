package xrand

import (
	"math"
	"sync"
)

// Zipf draws integers in [0, n) with a zipfian distribution of the given
// theta (YCSB's default key-chooser uses theta = 0.99). It implements the
// Gray et al. "quickly generating billion-record synthetic databases"
// method, which is what the original YCSB client uses, so key popularity
// skew in the simulated client matches the real benchmark.
type Zipf struct {
	r     *Rand
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	// item1 is 1 + 0.5^theta: a scaled draw u·zetan in [1, item1)
	// selects item 1.
	item1 float64
}

// NewZipf returns a zipfian generator over [0, n) with parameter theta in
// (0, 1). It panics if n == 0 or theta is out of range.
func NewZipf(r *Rand, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("xrand: NewZipf with zero n")
	}
	if theta <= 0 || theta >= 1 {
		panic("xrand: NewZipf theta must be in (0,1)")
	}
	z := &Zipf{r: r, n: n, theta: theta}
	z.alpha = 1 / (1 - theta)
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.item1 = 1 + math.Pow(0.5, theta)
	return z
}

// zetaKey identifies one memoized zeta table entry.
type zetaKey struct {
	n     uint64
	theta float64
}

// zetaCache memoizes zetaStatic results. Workload sweeps construct many
// generators over the same (n, theta) — YCSB's default keyspace is 10M keys
// at theta 0.99 — and the exact prefix sum below walks 2^20 Pow calls each
// time; caching turns every construction after the first into a map hit.
var zetaCache struct {
	sync.Mutex
	m map[zetaKey]float64
}

// zeta returns the memoized generalized harmonic number for (n, theta).
func zeta(n uint64, theta float64) float64 {
	k := zetaKey{n, theta}
	zetaCache.Lock()
	v, ok := zetaCache.m[k]
	if !ok {
		zetaCache.Unlock()
		// Compute outside the lock: a sweep's first construction can take
		// milliseconds and must not serialize concurrent runners. A racing
		// duplicate computation returns the identical float64.
		v = zetaStatic(n, theta)
		zetaCache.Lock()
		if zetaCache.m == nil {
			zetaCache.m = make(map[zetaKey]float64)
		}
		zetaCache.m[k] = v
	}
	zetaCache.Unlock()
	return v
}

// zetaStatic computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// For large n it uses the Euler–Maclaurin integral approximation to keep
// construction O(1)-ish; the approximation error is far below the noise the
// simulator injects anyway.
func zetaStatic(n uint64, theta float64) float64 {
	const exactLimit = 1 << 20
	if n <= exactLimit {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	sum := zetaStatic(exactLimit, theta)
	// Integral of x^-theta from exactLimit to n.
	a := float64(exactLimit)
	b := float64(n)
	sum += (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	return sum
}

// Uniform draws one uniform from the generator's stream. ScrambledAt
// transforms it into a key, so that a caller can draw now and transform
// later.
func (z *Zipf) Uniform() float64 {
	return z.r.Float64()
}

// at maps a Uniform draw onto a zipfian value in [0, n). The most
// popular item is 0.
func (z *Zipf) at(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.item1 {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// ScrambledAt maps a Uniform draw onto a zipfian value scrambled over
// the full domain with an FNV-style hash, as YCSB's
// ScrambledZipfianGenerator does, so hot keys are spread across the
// keyspace rather than clustered at the front.
func (z *Zipf) ScrambledAt(u float64) uint64 {
	v := z.at(u)
	h := v*0xc6a4a7935bd1e995 + 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	h ^= h >> 32
	return h % z.n
}
