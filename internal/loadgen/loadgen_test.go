package loadgen

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/hdrhist"
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

// TestCoordinatedOmissionRealTime runs a target that stalls once in
// open and in closed loop: the open loop must charge the stall to the
// intended-start latencies of the requests scheduled behind it, the
// closed loop only to the stalled request itself — the difference is
// the coordinated-omission error the generator exists to avoid. Bounds
// are generous — this asserts accounting, not scheduler precision.
func TestCoordinatedOmissionRealTime(t *testing.T) {
	sched := Uniform(200, 500*time.Millisecond) // 99 arrivals, 5ms apart
	stalling := func() Target {
		var calls atomic.Int64
		return TargetFunc(func(ctx context.Context, i int) error {
			if calls.Add(1) == 10 {
				time.Sleep(250 * time.Millisecond)
			}
			return nil
		})
	}
	t.Run("open-loop", func(t *testing.T) {
		res, err := Run(context.Background(), sched, stalling(), Options{Mode: OpenLoop, Workers: 1})
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
		// start.
		if slow := res.Hist.CountAbove(0.05); slow < 20 {
			t.Errorf("only %d samples over 50ms; stall not charged to queued arrivals", slow)
		}
		if res.Hist.Max() < 0.2 {
			t.Errorf("max latency %.3fs < stall duration", res.Hist.Max())
		}
	})
	// A closed loop measures from the actual send, so it records the
	// stall once.
	t.Run("closed-loop", func(t *testing.T) {
		res, err := Run(context.Background(), sched, stalling(), Options{Mode: ClosedLoop, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if slow := res.Hist.CountAbove(0.05); slow > 2 {
			t.Errorf("closed loop saw %d samples over 50ms, want at most a couple", slow)
		}
	})
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

// TestFindKneeTerminatesAndLocates drives the sweep with a synthetic
// step whose p99 is a fixed function of the offered rate (2 µs per
// req/s, except 3500 req/s, which would pass again): against a 5.5 ms
// SLO the knee is 2500 req/s, the last passing step, and the sweep
// stops at 3000 req/s, its first failing step.
func TestFindKneeTerminatesAndLocates(t *testing.T) {
	cfg := SweepConfig{
		Start: 500, Step: 500, Max: 4000,
		SLOP99:       0.0055,
		StepDuration: time.Second,
		Seed:         11,
	}
	sweep := func() (*Sweep, []float64) {
		var offered []float64
		sw, err := FindKnee(cfg, func(sched Schedule) (*Result, error) {
			offered = append(offered, sched.Rate)
			p99 := sched.Rate * 2e-6
			if sched.Rate == 3500 {
				p99 = 0.001
			}
			res := &Result{Hist: hdrhist.New(hdrhist.Config{}), Rate: sched.Rate, Elapsed: cfg.StepDuration}
			for range sched.Offsets {
				res.Hist.Record(p99)
				res.Sent++
			}
			return res, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sw, offered
	}
	sw, offered := sweep()
	if want := "[500 1000 1500 2000 2500 3000]"; fmt.Sprint(offered) != want {
		t.Errorf("offered rates %v, want %s: the sweep must stop at the first failing step", offered, want)
	}
	if sw.Knee != 2500 {
		t.Errorf("knee %.0f req/s, want 2500", sw.Knee)
	}
	for i, p := range sw.Points {
		if last := i == len(sw.Points)-1; p.OK == last {
			t.Errorf("step %.0f req/s: OK=%v, want every step but the last to pass", p.Rate, p.OK)
		}
	}
	again, _ := sweep()
	if again.Table() != sw.Table() {
		t.Errorf("same config, different curve:\n%s\n%s", sw.Table(), again.Table())
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
