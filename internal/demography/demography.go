// Package demography models object lifetimes: how many of the bytes a
// workload allocates are still live at any later instant.
//
// The generational hypothesis the paper's collectors exploit (§2) is a
// statement about demographics: most bytes die young, few old-to-young
// references exist. The model represents allocated bytes as cohorts with a
// three-component lifetime mixture:
//
//   - a short-lived component with exponentially distributed lifetime
//     (temporaries — the overwhelming majority in DaCapo workloads),
//   - a medium-lived component, also exponential but with a much longer
//     mean (caches, per-request state, per-iteration structures),
//   - a long-lived component that never dies on its own (the application's
//     persistent live set: H2's database pages, Cassandra's memtable). It
//     is released only explicitly (iteration teardown, memtable flush).
//
// Exponential components are memoryless, so cohorts can be rebased to the
// current instant at every observation without changing future behaviour;
// the tracker exploits this to keep cohort lists small and exact.
//
// Because the simulator tracks bytes, not objects, survival is computed in
// closed form: no per-object state exists, which is what makes simulating
// 64 GB heaps over multi-hour runs cheap.
package demography

import (
	"errors"
	"fmt"
	"math"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// Profile is a workload's lifetime mixture. Fractions are of allocated
// bytes; ShortFrac + MediumFrac must not exceed 1, and the remainder is
// the long-lived fraction.
type Profile struct {
	ShortFrac  float64          // fraction of bytes dying with mean MeanShort
	MeanShort  simtime.Duration // mean lifetime of the short component
	MediumFrac float64          // fraction dying with mean MeanMedium
	MeanMedium simtime.Duration // mean lifetime of the medium component
}

// LongFrac returns the long-lived fraction of allocated bytes.
func (p Profile) LongFrac() float64 { return 1 - p.ShortFrac - p.MediumFrac }

// Validate reports whether the profile is a proper mixture.
func (p Profile) Validate() error {
	switch {
	case p.ShortFrac < 0 || p.MediumFrac < 0:
		return errors.New("demography: negative mixture fraction")
	case p.ShortFrac+p.MediumFrac > 1+1e-9:
		return fmt.Errorf("demography: fractions sum to %v > 1", p.ShortFrac+p.MediumFrac)
	case p.ShortFrac > 0 && p.MeanShort <= 0:
		return errors.New("demography: short component needs positive mean lifetime")
	case p.MediumFrac > 0 && p.MeanMedium <= 0:
		return errors.New("demography: medium component needs positive mean lifetime")
	default:
		return nil
	}
}

// cohort is a bundle of bytes allocated at (or rebased to) the same
// instant, with per-component byte counts and the number of minor
// collections survived.
type cohort struct {
	birth  simtime.Time
	short  float64
	medium float64
	long   float64
	age    int
}

// liveAt returns the cohort's per-component live bytes at time t. The
// mean lifetimes arrive pre-converted to seconds (hoisted out of the
// per-cohort decay; the division by the same float64 yields bit-identical
// results to converting per call).
func (c *cohort) liveAt(t simtime.Time, meanShortSec, meanMediumSec float64) (short, medium, long float64) {
	dt := t.Sub(c.birth).Seconds()
	short, medium, long = c.short, c.medium, c.long
	if dt <= 0 {
		// Exp(0) is exactly 1 and x*1.0 == x, so querying a cohort at its
		// birth instant (freshly rebased cohorts, same-event queries) can
		// skip the exponentials without changing a bit of the result.
		return short, medium, long
	}
	if short > 0 && meanShortSec > 0 {
		short *= math.Exp(-dt / meanShortSec)
	}
	if medium > 0 && meanMediumSec > 0 {
		medium *= math.Exp(-dt / meanMediumSec)
	}
	return short, medium, long
}

func (c *cohort) total() float64 { return c.short + c.medium + c.long }

// rebase replaces the cohort's amounts with its live amounts at t and
// moves its birth to t. Exponential memorylessness makes this exact.
func (c *cohort) rebase(t simtime.Time, meanShortSec, meanMediumSec float64) {
	c.short, c.medium, c.long = c.liveAt(t, meanShortSec, meanMediumSec)
	c.birth = t
}

// MinorOutcome reports the demographic result of a minor collection.
type MinorOutcome struct {
	Survived machine.Bytes // live young bytes staying in the young generation
	Promoted machine.Bytes // live young bytes moving to the old generation
	Dead     machine.Bytes // young bytes reclaimed
}

// Tracker follows the demographics of one JVM's heap. It is not
// goroutine-safe; each simulated JVM owns one.
type Tracker struct {
	p      Profile
	young  []cohort
	old    []cohort
	pinned machine.Bytes

	// meanShortSec/meanMediumSec are the profile's mean lifetimes in
	// seconds, converted once so the per-cohort decay path skips the
	// Duration conversion.
	meanShortSec  float64
	meanMediumSec float64

	// scratch is the survivor staging buffer MinorGC reuses across
	// collections, so steady-state minor GCs allocate nothing.
	scratch []cohort
}

// NewTracker returns an empty tracker for the given profile. It panics on
// an invalid profile.
func NewTracker(p Profile) *Tracker {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	// One backing array serves both generations' steady-state capacity;
	// an append past either cap reallocates just that slice.
	backing := make([]cohort, 16)
	return &Tracker{
		p:             p,
		meanShortSec:  p.MeanShort.Seconds(),
		meanMediumSec: p.MeanMedium.Seconds(),
		young:         backing[0:0:8],
		old:           backing[8:8:16],
	}
}

// Allocate records bytes allocated at instant t into the young generation.
func (tk *Tracker) Allocate(t simtime.Time, n machine.Bytes) {
	if n < 0 {
		panic("demography: negative allocation")
	}
	if n == 0 {
		return
	}
	b := float64(n)
	tk.young = append(tk.young, cohort{
		birth:  t,
		short:  b * tk.p.ShortFrac,
		medium: b * tk.p.MediumFrac,
		long:   b * tk.p.LongFrac(),
	})
}

// AllocateOld records bytes allocated directly into the old generation
// (humongous objects: G1 allocates anything larger than half a region
// straight into old regions; the other collectors tenure oversized
// allocations immediately). The bytes follow the same lifetime mixture
// as young allocation, but die in the old generation, where only an
// old-generation collection reclaims them.
func (tk *Tracker) AllocateOld(t simtime.Time, n machine.Bytes) {
	if n < 0 {
		panic("demography: negative allocation")
	}
	if n == 0 {
		return
	}
	b := float64(n)
	tk.old = append(tk.old, cohort{
		birth:  t,
		short:  b * tk.p.ShortFrac,
		medium: b * tk.p.MediumFrac,
		long:   b * tk.p.LongFrac(),
	})
}

// AllocateSpread records bytes allocated uniformly over [t0, t1] as
// `pieces` sub-cohorts, so that bytes allocated early in the interval have
// had time to die by the end. t1 must not precede t0.
func (tk *Tracker) AllocateSpread(t0, t1 simtime.Time, n machine.Bytes, pieces int) {
	if t1 < t0 {
		panic("demography: AllocateSpread with inverted interval")
	}
	if pieces < 1 {
		pieces = 1
	}
	if n <= 0 {
		if n < 0 {
			panic("demography: negative allocation")
		}
		return
	}
	span := t1.Sub(t0)
	per := n / machine.Bytes(pieces)
	rem := n - per*machine.Bytes(pieces)
	for i := 0; i < pieces; i++ {
		// Midpoint of the i-th sub-interval.
		at := t0.Add(span * simtime.Duration(2*i+1) / simtime.Duration(2*pieces))
		amount := per
		if i == pieces-1 {
			amount += rem
		}
		tk.Allocate(at, amount)
	}
}

// YoungLive returns the live bytes currently in young cohorts at time t.
func (tk *Tracker) YoungLive(t simtime.Time) machine.Bytes {
	sum := 0.0
	for i := range tk.young {
		s, m, l := tk.young[i].liveAt(t, tk.meanShortSec, tk.meanMediumSec)
		sum += s + m + l
	}
	return machine.Bytes(sum)
}

// OldLive returns the live bytes in the old generation at time t,
// including pinned (externally managed) bytes.
func (tk *Tracker) OldLive(t simtime.Time) machine.Bytes {
	sum := 0.0
	for i := range tk.old {
		s, m, l := tk.old[i].liveAt(t, tk.meanShortSec, tk.meanMediumSec)
		sum += s + m + l
	}
	return machine.Bytes(sum) + tk.pinned
}

// AddPinned registers n bytes of externally managed long-lived data
// (e.g. a database memtable) as old-generation live data.
func (tk *Tracker) AddPinned(n machine.Bytes) {
	if n < 0 {
		panic("demography: negative pinned bytes")
	}
	tk.pinned += n
}

// ReleaseLong kills the given fraction of the long-lived component in all
// cohorts (young and old). DaCapo's iteration teardown is modelled this
// way: the iteration's persistent structures become garbage at once.
// Pinned bytes are not affected. frac is clamped to [0, 1].
func (tk *Tracker) ReleaseLong(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	keep := 1 - frac
	for i := range tk.young {
		tk.young[i].long *= keep
	}
	for i := range tk.old {
		tk.old[i].long *= keep
	}
}

// ReleaseMedium kills the given fraction of the medium-lived component in
// all cohorts (young and old). DaCapo iteration teardown releases the
// iteration's working structures, which are the medium component for most
// benchmarks. frac is clamped to [0, 1].
func (tk *Tracker) ReleaseMedium(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	keep := 1 - frac
	for i := range tk.young {
		tk.young[i].medium *= keep
	}
	for i := range tk.old {
		tk.old[i].medium *= keep
	}
}

// minLiveBytes is the threshold below which a cohort is dropped entirely.
const minLiveBytes = 1.0

// MinorGC applies a minor collection at time t with the given tenuring
// threshold and survivor-space capacity. Cohorts that survived more than
// `tenure` collections promote; younger survivors stay, unless the
// survivor space overflows, in which case the oldest cohorts promote
// prematurely (HotSpot's survivor-overflow behaviour — the mechanism
// behind the paper's Table 3 anomaly for fixed-sizing collectors).
func (tk *Tracker) MinorGC(t simtime.Time, tenure int, survivorCap machine.Bytes) MinorOutcome {
	if tenure < 0 {
		tenure = 0
	}
	var out MinorOutcome
	stay := tk.scratch[:0]
	before := 0.0
	// Cohorts that share a birth instant sit next to each other: the
	// survivors of one collection all carry its instant. Their decay
	// factors, the live amounts of a unit cohort of that birth, are
	// computed once from identical arguments, so every product has the
	// bits a per-cohort rebase gives (a zero component stays zero).
	birth, fs, fm := t, 1.0, 1.0
	for i := range tk.young {
		c := tk.young[i]
		bs, bm, bl := c.short, c.medium, c.long // occupancy contribution (at-birth bytes)
		if c.birth != birth {
			birth = c.birth
			unit := cohort{birth: birth, short: 1, medium: 1}
			fs, fm, _ = unit.liveAt(t, tk.meanShortSec, tk.meanMediumSec)
		}
		c.short, c.medium, c.birth = bs*fs, bm*fm, t
		before += bs + bm + bl
		if c.total() < minLiveBytes {
			continue
		}
		c.age++
		if c.age > tenure {
			tk.old = append(tk.old, c)
			out.Promoted += machine.Bytes(c.total())
		} else {
			stay = append(stay, c)
		}
	}
	tk.scratch = stay[:0] // keep (possibly grown) backing for the next collection

	// Enforce survivor capacity: promote oldest-first until the rest fit.
	total := 0.0
	for i := range stay {
		total += stay[i].total()
	}
	i := 0
	for total > float64(survivorCap) && i < len(stay) {
		// stay preserves allocation order; the oldest cohorts are first.
		c := stay[i]
		tk.old = append(tk.old, c)
		out.Promoted += machine.Bytes(c.total())
		total -= c.total()
		i++
	}

	tk.young = tk.young[:0]
	tk.young = append(tk.young, stay[i:]...)
	tk.mergeYoung()

	out.Survived = machine.Bytes(total)
	collected := machine.Bytes(before)
	if dead := collected - out.Survived - out.Promoted; dead > 0 {
		out.Dead = dead
	}
	return out
}

// mergeYoung merges young cohorts with identical (birth, age) so the list
// stays bounded by the tenuring threshold.
func (tk *Tracker) mergeYoung() {
	if len(tk.young) < 2 {
		return
	}
	merged := tk.young[:0]
	for _, c := range tk.young {
		n := len(merged)
		if n > 0 && merged[n-1].birth == c.birth && merged[n-1].age == c.age {
			merged[n-1].short += c.short
			merged[n-1].medium += c.medium
			merged[n-1].long += c.long
			continue
		}
		merged = append(merged, c)
	}
	tk.young = merged
}

// CollectOld prunes dead bytes from old cohorts at time t and merges the
// remainder into a single rebased cohort. It returns the live old bytes
// (including pinned). Concurrent old collections (CMS sweep, G1 mixed)
// and full collections both use it.
func (tk *Tracker) CollectOld(t simtime.Time) machine.Bytes {
	var agg cohort
	agg.birth = t
	maxAge := 0
	for i := range tk.old {
		s, m, l := tk.old[i].liveAt(t, tk.meanShortSec, tk.meanMediumSec)
		agg.short += s
		agg.medium += m
		agg.long += l
		if tk.old[i].age > maxAge {
			maxAge = tk.old[i].age
		}
	}
	agg.age = maxAge
	tk.old = tk.old[:0]
	if agg.total() >= minLiveBytes {
		tk.old = append(tk.old, agg)
	}
	return machine.Bytes(agg.total()) + tk.pinned
}

// FullGC applies a full collection at time t: all live young bytes move to
// the old generation (HotSpot's full collections compact survivors into
// the old space) and dead bytes everywhere are reclaimed. It returns the
// resulting old-generation live bytes, including pinned.
func (tk *Tracker) FullGC(t simtime.Time) machine.Bytes {
	for i := range tk.young {
		c := tk.young[i]
		c.rebase(t, tk.meanShortSec, tk.meanMediumSec)
		if c.total() < minLiveBytes {
			continue
		}
		tk.old = append(tk.old, c)
	}
	tk.young = tk.young[:0]
	return tk.CollectOld(t)
}
