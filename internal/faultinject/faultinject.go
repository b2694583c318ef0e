// Package faultinject is a deterministic, seed-driven fault-injection
// layer for chaos-testing the laboratory's long-running services.
//
// A service instruments its failure-prone sites with named fault points
// ("labd/job.panic", "labd/cache.corrupt", ...). An Injector decides, per
// hit of a site, whether a fault fires there — by probability, by cadence
// (every Nth hit), or by budget (at most N fires) — and the decision
// sequence is a pure function of (seed, site, hit index), so a chaos run
// replays identically for a fixed seed and serialized hit order.
//
// The disabled state is a nil *Injector: every method is a no-op behind a
// single nil check, so production hot paths pay nothing for carrying
// fault points (BenchmarkNoopFaultPoint guards this).
//
// Rules are configured programmatically (Set) or parsed from a compact
// spec string (Parse):
//
//	site:key=val,key=val;site2:...
//
//	labd/job.panic:count=1                 first hit panics, then never again
//	labd/job.latency:p=0.1,delay=50ms      10% of hits delayed 50 ms
//	labd/http.flaky:every=2,count=3        hits 2, 4, 6 fail, then clean
//	labd/job.error:after=10,p=0.5          clean warm-up, then a coin flip
//
// With neither p nor every given, a rule fires on every eligible hit.
package faultinject

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Rule configures one fault site.
type Rule struct {
	// P is the per-hit fire probability (0 < P <= 1). Zero with Every
	// also zero means "always fire".
	P float64
	// Every fires on every Nth eligible hit (1-based; overrides P).
	Every int64
	// After skips the first N hits before any fault can fire.
	After int64
	// Count caps the total fires at the site (0 = unlimited).
	Count int64
	// Delay is the latency served by Latency when the site fires
	// (default 10 ms when unset).
	Delay time.Duration
}

// DefaultDelay is the injected latency for rules that do not set one.
const DefaultDelay = 10 * time.Millisecond

type siteState struct {
	rule  Rule
	hits  int64
	fired int64
}

// Injector decides fault firing for a set of named sites. A nil Injector
// is the disabled injector: all methods are no-ops.
type Injector struct {
	seed  uint64
	mu    sync.Mutex
	sites map[string]*siteState
}

// New returns an enabled injector with no rules; Set adds them.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, sites: make(map[string]*siteState)}
}

// Parse builds an injector from a spec string (see the package comment
// for the grammar). An empty spec returns nil — the disabled injector.
func Parse(seed uint64, spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, opts, _ := strings.Cut(entry, ":")
		site = strings.TrimSpace(site)
		if site == "" {
			return nil, fmt.Errorf("faultinject: empty site in entry %q", entry)
		}
		var r Rule
		for _, opt := range strings.Split(opts, ",") {
			opt = strings.TrimSpace(opt)
			if opt == "" {
				continue
			}
			key, val, ok := strings.Cut(opt, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: %s: option %q is not key=value", site, opt)
			}
			var err error
			switch key {
			case "p":
				r.P, err = strconv.ParseFloat(val, 64)
				if err == nil && (r.P <= 0 || r.P > 1) {
					err = fmt.Errorf("probability %g outside (0, 1]", r.P)
				}
			case "every":
				r.Every, err = parsePositive(val)
			case "after":
				r.After, err = strconv.ParseInt(val, 10, 64)
				if err == nil && r.After < 0 {
					err = fmt.Errorf("negative after %d", r.After)
				}
			case "count":
				r.Count, err = parsePositive(val)
			case "delay":
				r.Delay, err = time.ParseDuration(val)
				if err == nil && r.Delay < 0 {
					err = fmt.Errorf("negative delay %v", r.Delay)
				}
			default:
				err = fmt.Errorf("unknown option %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s: %s=%s: %v", site, key, val, err)
			}
		}
		in.Set(site, r)
	}
	return in, nil
}

func parsePositive(val string) (int64, error) {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return 0, err
	}
	if n <= 0 {
		return 0, fmt.Errorf("want a positive integer, got %d", n)
	}
	return n, nil
}

// Set installs (or replaces) the rule for a site, resetting its hit and
// fire counters.
func (in *Injector) Set(site string, r Rule) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.sites[site] = &siteState{rule: r}
	in.mu.Unlock()
}

// Enabled reports whether the injector can fire anything (false on nil).
func (in *Injector) Enabled() bool { return in != nil }

// Fire records one hit of a site and reports whether a fault fires
// there. Sites without a rule never fire. A nil injector never fires and
// records nothing.
func (in *Injector) Fire(site string) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st, ok := in.sites[site]
	if !ok {
		return false
	}
	st.hits++
	r := st.rule
	if r.Count > 0 && st.fired >= r.Count {
		return false
	}
	if st.hits <= r.After {
		return false
	}
	eligible := st.hits - r.After
	var fire bool
	switch {
	case r.Every > 0:
		fire = eligible%r.Every == 0
	case r.P > 0:
		fire = uniform(in.seed, site, st.hits) < r.P
	default:
		fire = true
	}
	if fire {
		st.fired++
	}
	return fire
}

// Latency returns the injected delay for one hit of a latency site: the
// rule's Delay (DefaultDelay when unset) if the site fires, zero
// otherwise. The caller sleeps; the injector never blocks.
func (in *Injector) Latency(site string) time.Duration {
	if in == nil || !in.Fire(site) {
		return 0
	}
	in.mu.Lock()
	d := in.sites[site].rule.Delay
	in.mu.Unlock()
	if d <= 0 {
		d = DefaultDelay
	}
	return d
}

// Error returns an injected transient error for one hit of a site, or
// nil when the site does not fire.
func (in *Injector) Error(site string) error {
	if in == nil || !in.Fire(site) {
		return nil
	}
	return fmt.Errorf("faultinject: injected transient error at %s", site)
}

// Corrupt flips one deterministically-chosen byte of b in place when the
// site fires, and reports whether it did. Empty buffers are never
// corrupted (the hit is still recorded).
func (in *Injector) Corrupt(site string, b []byte) bool {
	if in == nil || !in.Fire(site) {
		return false
	}
	if len(b) == 0 {
		return false
	}
	in.mu.Lock()
	n := in.sites[site].fired
	in.mu.Unlock()
	b[mix(in.seed, site, uint64(n))%uint64(len(b))] ^= 0xff
	return true
}

// Fired returns how many faults a site has injected.
func (in *Injector) Fired(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.sites[site]; ok {
		return st.fired
	}
	return 0
}

// Total returns the number of faults injected across all sites.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, st := range in.sites {
		n += st.fired
	}
	return n
}

// String summarizes the injector's sites and activity, sorted by site
// name ("<nil>" for the disabled injector).
func (in *Injector) String() string {
	if in == nil {
		return "<nil>"
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.sites))
	for name := range in.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "faultinject(seed=%d)", in.seed)
	for _, name := range names {
		st := in.sites[name]
		fmt.Fprintf(&b, " %s[%d/%d]", name, st.fired, st.hits)
	}
	return b.String()
}

// uniform maps (seed, site, hit) onto [0, 1) deterministically.
func uniform(seed uint64, site string, hit int64) float64 {
	return float64(mix(seed, site, uint64(hit))>>11) / float64(1<<53)
}

// mix is a splitmix64 finalizer over the seed, an FNV-1a hash of the
// site name, and the hit index.
func mix(seed uint64, site string, n uint64) uint64 {
	h := uint64(14695981039346656037) // FNV offset basis
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211 // FNV prime
	}
	z := seed ^ h ^ (n * 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}
