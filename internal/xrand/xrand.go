// Package xrand provides the deterministic pseudo-random number generation
// used by every stochastic component of the jvmgc laboratory.
//
// Determinism is a hard requirement: every table and figure of the paper
// reproduction must regenerate bit-identically from a seed. The package
// therefore offers a splittable generator — independent subsystems (each
// mutator thread, each benchmark iteration, each client thread) receive
// their own split stream, so adding a consumer never perturbs the draws
// seen by existing ones.
//
// The core generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by Blackman & Vigna. It is not cryptographically
// secure and must never be used for security purposes.
package xrand

import "math"

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used for seeding and for splitting.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New or Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Distinct seeds give
// independent streams with overwhelming probability.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new independent generator from r. The derived stream is a
// pure function of r's current state, and splitting advances r exactly one
// step, so callers can split repeatedly to fan out sub-streams.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// SplitLabeled derives an independent generator bound to a string label.
// Two splits with different labels from the same parent state differ, and
// the parent is advanced exactly one step regardless of the label, so the
// set of labels used does not perturb sibling streams.
func (r *Rand) SplitLabeled(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n). It panics if
// n == 0. It uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	for {
		v := r.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n {
			return hi
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// Bool returns true with probability p. Values of p outside [0,1] are
// clamped.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// PolarPair draws the polar (Marsaglia) method's accepted pair: a point
// (u, v) uniform in the unit disc, returned as u and s = u²+v² in
// (0, 1). Polar transforms it into a standard normal value; the two are
// split so that a caller can draw now and transform later, or
// elsewhere.
func (r *Rand) PolarPair() (u, s float64) {
	for {
		u = 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s = u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u, s
	}
}

// Polar transforms a PolarPair draw into a standard normal value.
func Polar(u, s float64) float64 {
	return u * math.Sqrt(-2*math.Log(s)/s)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1): PositiveFloat64's draw through ExpOf's transform.
func (r *Rand) ExpFloat64() float64 {
	return ExpOf(r.PositiveFloat64())
}

// PositiveFloat64 returns a uniformly distributed float64 in (0, 1): a
// Float64 draw, redrawn while it is 0.
func (r *Rand) PositiveFloat64() float64 {
	for {
		if u := r.Float64(); u > 0 {
			return u
		}
	}
}

// ExpOf transforms a PositiveFloat64 draw into a rate-1 exponential
// value.
func ExpOf(u float64) float64 {
	return -math.Log(u)
}

// Exp returns an exponentially distributed float64 with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// LogNormal returns a log-normally distributed float64 with the given
// location mu and scale sigma of the underlying normal.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	u, s := r.PolarPair()
	return LogNormalOf(mu, sigma, u, s)
}

// LogNormalOf transforms a PolarPair draw into the log-normal value
// LogNormal(mu, sigma) returns for it.
func LogNormalOf(mu, sigma, u, s float64) float64 {
	return math.Exp(mu + sigma*Polar(u, s))
}

// Jitter returns v scaled by a uniform factor in [1-frac, 1+frac]. It is
// the standard way the simulator injects run-to-run noise.
func (r *Rand) Jitter(v, frac float64) float64 {
	return v * (1 + frac*(2*r.Float64()-1))
}
