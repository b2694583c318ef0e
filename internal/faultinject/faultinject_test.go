package faultinject

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestNilInjectorIsInert: the disabled injector never fires, never
// delays, never errors, never corrupts, and never counts.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Error("nil injector reports enabled")
	}
	for i := 0; i < 100; i++ {
		if in.Fire("any") {
			t.Fatal("nil injector fired")
		}
	}
	if d := in.Latency("any"); d != 0 {
		t.Errorf("nil Latency = %v, want 0", d)
	}
	if err := in.Error("any"); err != nil {
		t.Errorf("nil Error = %v, want nil", err)
	}
	b := []byte("payload")
	if in.Corrupt("any", b) || !bytes.Equal(b, []byte("payload")) {
		t.Error("nil Corrupt mutated the buffer")
	}
	if in.Hits("any") != 0 || in.Fired("any") != 0 || in.Total() != 0 {
		t.Error("nil injector counted something")
	}
	if in.String() != "<nil>" {
		t.Errorf("nil String = %q", in.String())
	}
	in.Set("any", Rule{}) // must not panic
}

// TestUnknownSiteNeverFires: sites without a rule are inert.
func TestUnknownSiteNeverFires(t *testing.T) {
	in := New(1)
	in.Set("known", Rule{})
	for i := 0; i < 10; i++ {
		if in.Fire("unknown") {
			t.Fatal("unconfigured site fired")
		}
	}
	if in.Hits("unknown") != 0 {
		t.Error("unconfigured site recorded hits")
	}
}

// TestCadenceRules: every/after/count semantics are exact.
func TestCadenceRules(t *testing.T) {
	in := New(7)
	in.Set("s", Rule{Every: 2, After: 1, Count: 3})
	var fires []int
	for hit := 1; hit <= 12; hit++ {
		if in.Fire("s") {
			fires = append(fires, hit)
		}
	}
	// After=1 skips hit 1; eligible hits 2,3,4,... fire every 2nd
	// (eligible index 2 → hit 3, 4 → hit 5, 6 → hit 7), capped at 3.
	want := []int{3, 5, 7}
	if len(fires) != len(want) {
		t.Fatalf("fires at %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires at %v, want %v", fires, want)
		}
	}
	if got := in.Fired("s"); got != 3 {
		t.Errorf("Fired = %d, want 3", got)
	}
	if got := in.Hits("s"); got != 12 {
		t.Errorf("Hits = %d, want 12", got)
	}
}

// TestAlwaysFireDefault: a rule with neither p nor every fires on every
// eligible hit.
func TestAlwaysFireDefault(t *testing.T) {
	in := New(0)
	in.Set("s", Rule{Count: 2})
	got := 0
	for i := 0; i < 5; i++ {
		if in.Fire("s") {
			got++
		}
	}
	if got != 2 {
		t.Errorf("fires = %d, want 2 (count-capped always-fire)", got)
	}
}

// TestProbabilityDeterministicAndCalibrated: the same (seed, site, hit)
// sequence fires identically across injectors, different seeds diverge,
// and the long-run rate tracks p.
func TestProbabilityDeterministicAndCalibrated(t *testing.T) {
	const n = 20000
	run := func(seed uint64) []bool {
		in := New(seed)
		in.Set("s", Rule{P: 0.3})
		out := make([]bool, n)
		for i := range out {
			out[i] = in.Fire("s")
		}
		return out
	}
	a, b, c := run(42), run(42), run(43)
	same := true
	diverged := false
	fired := 0
	for i := range a {
		same = same && a[i] == b[i]
		diverged = diverged || a[i] != c[i]
		if a[i] {
			fired++
		}
	}
	if !same {
		t.Error("same seed produced different fire sequences")
	}
	if !diverged {
		t.Error("different seeds produced identical fire sequences")
	}
	if rate := float64(fired) / n; rate < 0.27 || rate > 0.33 {
		t.Errorf("fire rate %g for p=0.3", rate)
	}
}

// TestCorruptFlipsOneByte: corruption mutates exactly one byte,
// deterministically for a fixed seed.
func TestCorruptFlipsOneByte(t *testing.T) {
	orig := []byte("the quick brown fox jumps over the lazy dog")
	flip := func() []byte {
		in := New(99)
		in.Set("c", Rule{})
		b := append([]byte(nil), orig...)
		if !in.Corrupt("c", b) {
			t.Fatal("always-fire corrupt did not fire")
		}
		return b
	}
	a, b := flip(), flip()
	if !bytes.Equal(a, b) {
		t.Error("corruption is not deterministic for a fixed seed")
	}
	diff := 0
	for i := range a {
		if a[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption changed %d bytes, want exactly 1", diff)
	}
	// Empty buffers survive.
	in := New(99)
	in.Set("c", Rule{})
	if in.Corrupt("c", nil) {
		t.Error("corrupting an empty buffer reported success")
	}
}

// TestLatencyRule: firing latency sites serve the configured delay,
// defaulting when unset.
func TestLatencyRule(t *testing.T) {
	in := New(5)
	in.Set("slow", Rule{Delay: 25 * time.Millisecond})
	in.Set("default", Rule{})
	if d := in.Latency("slow"); d != 25*time.Millisecond {
		t.Errorf("Latency(slow) = %v, want 25ms", d)
	}
	if d := in.Latency("default"); d != DefaultDelay {
		t.Errorf("Latency(default) = %v, want %v", d, DefaultDelay)
	}
	in.Set("never", Rule{After: 1 << 60})
	if d := in.Latency("never"); d != 0 {
		t.Errorf("Latency(never) = %v, want 0", d)
	}
}

// TestParse: the spec grammar round-trips into working rules and rejects
// malformed input.
func TestParse(t *testing.T) {
	in, err := Parse(11, "a:count=1; b:every=2,count=3 ;c:p=0.5,delay=5ms,after=10")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Fire("a") || in.Fire("a") {
		t.Error("a:count=1 must fire exactly once")
	}
	if in.Fire("b") || !in.Fire("b") {
		t.Error("b:every=2 must fire on the second hit")
	}
	if in.Fire("c") {
		t.Error("c:after=10 must not fire on the first hit")
	}
	if s := in.String(); !strings.Contains(s, "seed=11") || !strings.Contains(s, "a[1/2]") {
		t.Errorf("String() = %q", s)
	}

	if in, err := Parse(0, "  "); in != nil || err != nil {
		t.Errorf("empty spec = (%v, %v), want disabled injector", in, err)
	}
	for _, bad := range []string{
		":p=1",          // empty site
		"s:p",           // not key=value
		"s:p=2",         // probability out of range
		"s:p=0",         // probability out of range
		"s:every=0",     // non-positive
		"s:count=-1",    // non-positive
		"s:after=-2",    // negative
		"s:delay=-1ms",  // negative
		"s:delay=fast",  // unparseable
		"s:warp=9",      // unknown option
		"s:every=chaos", // unparseable
	} {
		if _, err := Parse(0, bad); err == nil {
			t.Errorf("Parse(%q) accepted malformed spec", bad)
		}
	}
}

// Hits returns how many times a site was evaluated.
func (in *Injector) Hits(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st, ok := in.sites[site]; ok {
		return st.hits
	}
	return 0
}
