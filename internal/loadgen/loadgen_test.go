package loadgen

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoissonScheduleDeterministic(t *testing.T) {
	a := Poisson(500, 2*time.Second, 42)
	b := Poisson(500, 2*time.Second, 42)
	if len(a.Offsets) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a.Offsets) != len(b.Offsets) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Offsets), len(b.Offsets))
	}
	for i := range a.Offsets {
		if a.Offsets[i] != b.Offsets[i] {
			t.Fatalf("offset %d differs: %v vs %v", i, a.Offsets[i], b.Offsets[i])
		}
	}
	c := Poisson(500, 2*time.Second, 43)
	if len(c.Offsets) == len(a.Offsets) {
		same := true
		for i := range c.Offsets {
			if c.Offsets[i] != a.Offsets[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
	// Mean arrival count within 20% of rate*duration, offsets sorted.
	if n := len(a.Offsets); n < 800 || n > 1200 {
		t.Errorf("arrival count %d implausible for 500 rps over 2s", n)
	}
	for i := 1; i < len(a.Offsets); i++ {
		if a.Offsets[i] < a.Offsets[i-1] {
			t.Fatalf("offsets not sorted at %d", i)
		}
	}
}

// TestSimulateDeterministic is the satellite's headline: same seed,
// byte-identical latency histogram.
func TestSimulateDeterministic(t *testing.T) {
	run := func() []byte {
		sched := Poisson(2000, time.Second, 99)
		res, err := Simulate(sched, 2, LogNormalService(300*time.Microsecond, 0.5, 7), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.Hist.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("same seed produced different latency histograms")
	}
}

// TestCoordinatedOmissionVirtual injects a server stall into an
// open-loop and a closed-loop run of the same schedule and model. The
// open loop must charge the stall to every request whose intended start
// fell inside it; the closed loop records it exactly once — the
// difference is the coordinated-omission error the generator exists to
// avoid.
func TestCoordinatedOmissionVirtual(t *testing.T) {
	sched := Uniform(1000, time.Second) // 999 arrivals, 1ms apart
	// 100µs service, but request 100 stalls for 200ms — a GC pause. With
	// one server, every request intended during those 200ms queues.
	model := func() ServiceModel {
		return WithStall(FixedService(100*time.Microsecond), 100, 101, 200*time.Millisecond)
	}
	open, err := Simulate(sched, 1, model(), Options{Mode: OpenLoop})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := Simulate(sched, 1, model(), Options{Mode: ClosedLoop})
	if err != nil {
		t.Fatal(err)
	}
	// ~200 requests were due during the stall; open loop must see them
	// all above 10ms, closed loop only the stalled request itself.
	openSlow := open.Hist.CountAbove(0.01)
	closedSlow := closed.Hist.CountAbove(0.01)
	if openSlow < 150 {
		t.Errorf("open loop saw %d samples over 10ms, want ≥150 (stall must hit queued arrivals)", openSlow)
	}
	if closedSlow != 1 {
		t.Errorf("closed loop saw %d samples over 10ms, want exactly the stalled request", closedSlow)
	}
	if open.Hist.Quantile(99) < 10*closed.Hist.Quantile(99) {
		t.Errorf("open p99 %.4fs not ≫ closed p99 %.4fs — CO correction missing",
			open.Hist.Quantile(99), closed.Hist.Quantile(99))
	}
}

// TestCoordinatedOmissionRealTime repeats the stall experiment against
// the wall clock: a target that blocks once must show up in the
// intended-start latencies of the requests scheduled behind it. Bounds
// are generous — this asserts accounting, not scheduler precision.
func TestCoordinatedOmissionRealTime(t *testing.T) {
	sched := Uniform(200, 500*time.Millisecond) // 99 arrivals, 5ms apart
	var calls atomic.Int64
	tgt := TargetFunc(func(ctx context.Context, i int) error {
		if calls.Add(1) == 10 {
			time.Sleep(250 * time.Millisecond)
		}
		return nil
	})
	res, err := Run(context.Background(), sched, tgt, Options{Mode: OpenLoop, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed", res.Failed)
	}
	if res.Sent != sched.Len() {
		t.Fatalf("sent %d, want %d", res.Sent, sched.Len())
	}
	// The stall is 250ms and arrivals keep coming every 5ms with one
	// worker: at least ~30 requests must record >50ms from intended
	// start. A closed-loop generator would record ≤ a couple.
	if slow := res.Hist.CountAbove(0.05); slow < 20 {
		t.Errorf("only %d samples over 50ms; stall not charged to queued arrivals", slow)
	}
	if res.Hist.Max() < 0.2 {
		t.Errorf("max latency %.3fs < stall duration", res.Hist.Max())
	}
}

func TestClosedLoopRealTime(t *testing.T) {
	sched := Uniform(1000, 100*time.Millisecond)
	var calls atomic.Int64
	tgt := TargetFunc(func(ctx context.Context, i int) error {
		calls.Add(1)
		return nil
	})
	res, err := Run(context.Background(), sched, tgt, Options{Mode: ClosedLoop, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if int(calls.Load()) != sched.Len() || res.Sent != sched.Len() {
		t.Fatalf("calls=%d sent=%d, want %d", calls.Load(), res.Sent, sched.Len())
	}
}

// TestFindKneeTerminatesAndLocates drives the sweep against a virtual
// M/G/1 with ~400µs service: capacity ≈ 2500 rps, so a ladder through
// 4000 must stop early with a knee below capacity.
func TestFindKneeTerminatesAndLocates(t *testing.T) {
	cfg := SweepConfig{
		Start: 500, Step: 500, Max: 4000,
		SLOP99:       0.02,
		StepDuration: 2 * time.Second,
		Seed:         11,
	}
	sw, err := FindKnee(cfg, func(sched Schedule) (*Result, error) {
		return Simulate(sched, 1, FixedService(400*time.Microsecond), Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) == 0 {
		t.Fatal("no sweep points")
	}
	last := sw.Points[len(sw.Points)-1]
	if last.OK && last.Rate < cfg.Max {
		t.Error("sweep stopped early on a passing step")
	}
	if sw.Knee <= 0 || sw.Knee > 2500 {
		t.Errorf("knee %.0f rps implausible for a 2500 rps server", sw.Knee)
	}
	// Deterministic: the same config yields the same curve.
	sw2, err := FindKnee(cfg, func(sched Schedule) (*Result, error) {
		return Simulate(sched, 1, FixedService(400*time.Microsecond), Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if sw2.Knee != sw.Knee || len(sw2.Points) != len(sw.Points) {
		t.Errorf("sweep not deterministic: knee %v vs %v", sw.Knee, sw2.Knee)
	}
	if sw.Table() == "" {
		t.Error("empty table")
	}
}

// Uniform builds a fixed-interval schedule: one arrival every 1/rate
// seconds for d. Deterministic without a seed; useful when the test
// wants exact arrival counts.
func Uniform(rate float64, d time.Duration) Schedule {
	if rate <= 0 || d <= 0 {
		return Schedule{Rate: rate}
	}
	gap := time.Duration(float64(time.Second) / rate)
	if gap <= 0 {
		gap = 1
	}
	s := Schedule{Rate: rate, Offsets: make([]time.Duration, 0, int(d/gap)+1)}
	for t := gap; t < d; t += gap {
		s.Offsets = append(s.Offsets, t)
	}
	return s
}

// FixedService models a constant service time.
func FixedService(d time.Duration) ServiceModel {
	return func(int) time.Duration { return d }
}

// WithStall wraps a model so requests in [from, to) take extra time —
// the injected stall the coordinated-omission tests are built around
// (think: a GC pause on the server).
func WithStall(m ServiceModel, from, to int, extra time.Duration) ServiceModel {
	return func(i int) time.Duration {
		d := m(i)
		if i >= from && i < to {
			d += extra
		}
		return d
	}
}
