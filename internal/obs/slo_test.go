package obs

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func testSLO(clk *fakeClock) *SLO {
	return NewSLO(SLOConfig{
		LatencyThreshold: 100 * time.Millisecond,
		LatencyTarget:    0.99,  // 1% latency budget
		ErrorTarget:      0.999, // 0.1% error budget
		Windows:          []time.Duration{time.Minute, 10 * time.Minute},
		Buckets:          6,
		Now:              clk.Now,
	})
}

func TestSLONilIsNoOp(t *testing.T) {
	var s *SLO
	if s.Enabled() {
		t.Fatal("nil SLO enabled")
	}
	s.Observe(time.Second, true)
	st := s.Status()
	if st.Total != 0 || st.Severity != "" {
		t.Fatalf("nil status = %+v", st)
	}
}

func TestSLOIdleThenOK(t *testing.T) {
	clk := newFakeClock()
	s := testSLO(clk)
	if got := s.Status().Severity; got != "idle" {
		t.Fatalf("severity before traffic = %q", got)
	}
	for i := 0; i < 100; i++ {
		s.Observe(10*time.Millisecond, false)
	}
	st := s.Status()
	if st.Severity != "ok" || st.Total != 100 || st.Slow != 0 || st.Errors != 0 {
		t.Fatalf("healthy status = %+v", st)
	}
	if len(st.Windows) != 2 || st.Windows[0].Total != 100 || st.Windows[1].Total != 100 {
		t.Fatalf("windows = %+v", st.Windows)
	}
}

func TestSLOBurnRatesAndSeverity(t *testing.T) {
	clk := newFakeClock()
	s := testSLO(clk)

	// 20% of requests slow against a 1% budget → latency burn 20x in
	// every window → "page".
	for i := 0; i < 100; i++ {
		lat := 10 * time.Millisecond
		if i%5 == 0 {
			lat = 200 * time.Millisecond
		}
		s.Observe(lat, false)
	}
	st := s.Status()
	if st.Severity != "page" {
		t.Fatalf("severity = %q, want page (windows %+v)", st.Severity, st.Windows)
	}
	for _, w := range st.Windows {
		if w.LatencyBurnRate < 19.9 || w.LatencyBurnRate > 20.1 {
			t.Errorf("window %s latency burn = %v, want ~20", w.Window, w.LatencyBurnRate)
		}
	}

	// Let the short window age out: after >1 minute of healthy traffic
	// the 1m window is clean, the 10m window still remembers the burn —
	// multiwindow severity must drop (long-ago incidents cannot re-page).
	for i := 0; i < 12; i++ {
		clk.Advance(10 * time.Second)
		for j := 0; j < 50; j++ {
			s.Observe(10*time.Millisecond, false)
		}
	}
	st = s.Status()
	if st.Windows[0].Slow != 0 {
		t.Fatalf("short window not aged out: %+v", st.Windows[0])
	}
	if st.Windows[1].Slow == 0 {
		t.Fatalf("long window forgot the incident: %+v", st.Windows[1])
	}
	if st.Severity == "page" || st.Severity == "warn" {
		t.Fatalf("severity after recovery = %q", st.Severity)
	}
}

func TestSLOErrorBurn(t *testing.T) {
	clk := newFakeClock()
	s := testSLO(clk)
	// 1% errors against a 0.1% budget → error burn 10x → "warn".
	for i := 0; i < 1000; i++ {
		s.Observe(time.Millisecond, i%100 == 0)
	}
	st := s.Status()
	if st.Severity != "warn" {
		t.Fatalf("severity = %q, want warn (windows %+v)", st.Severity, st.Windows)
	}
	if st.Errors != 10 {
		t.Fatalf("errors = %d", st.Errors)
	}
	for _, w := range st.Windows {
		if w.ErrorBurnRate < 9.9 || w.ErrorBurnRate > 10.1 {
			t.Errorf("window %s error burn = %v, want ~10", w.Window, w.ErrorBurnRate)
		}
	}
}

func TestSLOWindowExpiry(t *testing.T) {
	clk := newFakeClock()
	s := testSLO(clk)
	s.Observe(time.Second, true) // slow AND failed
	// Jump past both windows entirely.
	clk.Advance(11 * time.Minute)
	st := s.Status()
	for _, w := range st.Windows {
		if w.Total != 0 {
			t.Errorf("window %s retained stale traffic: %+v", w.Window, w)
		}
	}
	// Lifetime totals survive.
	if st.Total != 1 || st.Slow != 1 || st.Errors != 1 {
		t.Fatalf("lifetime totals = %+v", st)
	}
	if st.Severity != "ok" {
		t.Fatalf("severity with stale-only traffic = %q", st.Severity)
	}
}

func TestSLODefaults(t *testing.T) {
	cfg := NewSLO(SLOConfig{}).cfg
	if cfg.LatencyThreshold != 500*time.Millisecond || cfg.LatencyTarget != 0.99 ||
		cfg.ErrorTarget != 0.999 || len(cfg.Windows) != 2 || cfg.Buckets != 30 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

// TestMergeStatusEqualsOneMonitor: two monitors that split a stream
// between them merge to exactly the reading of one monitor fed all of
// it — window counts, fractions, burn rates, severity and lifetime
// totals alike. Each seed draws its own slow and error rates and clock
// steps, so windows age out and severities range from ok to page.
func TestMergeStatusEqualsOneMonitor(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slowP, errP := rng.Float64()*0.3, rng.Float64()*0.03
		clk := newFakeClock()
		a, b, whole := testSLO(clk), testSLO(clk), testSLO(clk)
		for i := 0; i < 500; i++ {
			clk.Advance(time.Duration(rng.Int63n(int64(5 * time.Second))))
			lat := 10 * time.Millisecond
			if rng.Float64() < slowP {
				lat = 150 * time.Millisecond
			}
			failed := rng.Float64() < errP
			part := a
			if rng.Intn(2) == 0 {
				part = b
			}
			part.Observe(lat, failed)
			whole.Observe(lat, failed)
		}
		got, want := MergeStatus(a.Status(), b.Status()), whole.Status()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: merged status\n%+v\nwant one monitor's\n%+v", seed, got, want)
		}
	}
}
