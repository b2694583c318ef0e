package loadgen

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// SweepPoint is one rate step of a saturation sweep.
type SweepPoint struct {
	Rate       float64 // offered rate (req/s)
	Throughput float64 // completed rate (req/s)
	P50, P99   float64 // seconds, CO-corrected in open loop
	Max        float64 // seconds
	Sent       int
	Failed     int
	OK         bool // SLO held and nothing failed
}

// SweepConfig shapes a saturation sweep.
type SweepConfig struct {
	// Start, Step, Max bound the offered-rate ladder (req/s). The sweep
	// runs Start, Start+Step, … and stops at the first failing step or
	// past Max — so knee detection always terminates.
	Start, Step, Max float64
	// SLOP99 is the p99 latency objective in seconds; a step whose p99
	// exceeds it fails.
	SLOP99 float64
	// StepDuration is the offered-load window per step.
	StepDuration time.Duration
	// Seed pins each step's arrival schedule: step k draws from
	// Seed+k, so the whole curve is reproducible from one number.
	Seed uint64
}

// Sweep is a completed saturation sweep.
type Sweep struct {
	Points []SweepPoint
	// Knee is the saturation knee: the highest offered rate at which
	// the p99 SLO held with zero failed requests (0 if no step passed).
	Knee float64
}

// RunStep executes one sweep step: a Poisson schedule at the given rate
// for the configured duration, derived-seeded per step.
type RunStep func(sched Schedule) (*Result, error)

// FindKnee sweeps offered rate until the SLO breaks and returns the
// curve with the knee identified. The sweep is monotone by
// construction: it stops at the first failing step (or at Max), so a
// bounded ladder always terminates — the property the CI smoke
// asserts.
func FindKnee(cfg SweepConfig, run RunStep) (*Sweep, error) {
	if cfg.Start <= 0 || cfg.Step <= 0 || cfg.Max < cfg.Start {
		return nil, errors.New("loadgen: sweep needs 0 < start, 0 < step, max >= start")
	}
	if cfg.StepDuration <= 0 {
		return nil, errors.New("loadgen: sweep needs a step duration")
	}
	sw := &Sweep{}
	step := 0
	for rate := cfg.Start; rate <= cfg.Max+1e-9; rate += cfg.Step {
		sched := Poisson(rate, cfg.StepDuration, cfg.Seed+uint64(step))
		step++
		if sched.Len() == 0 {
			continue
		}
		res, err := run(sched)
		if err != nil {
			return sw, err
		}
		p := Point(rate, res, cfg.SLOP99)
		sw.Points = append(sw.Points, p)
		if !p.OK {
			break
		}
		sw.Knee = rate
	}
	return sw, nil
}

// Point summarizes one run at an offered rate as a sweep step. The step
// is OK when no request failed and the p99 held sloP99 (a non-positive
// sloP99 holds any p99).
func Point(rate float64, res *Result, sloP99 float64) SweepPoint {
	p := SweepPoint{
		Rate:       rate,
		Throughput: res.Throughput(),
		P50:        res.Hist.Quantile(50),
		P99:        res.Hist.Quantile(99),
		Max:        res.Hist.Max(),
		Sent:       res.Sent,
		Failed:     res.Failed,
	}
	p.OK = p.Failed == 0 && (sloP99 <= 0 || p.P99 <= sloP99)
	return p
}

// Table renders the sweep as an aligned text table (rates in req/s,
// latencies in milliseconds), with the knee marked.
func (sw *Sweep) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%10s %12s %10s %10s %10s %7s %8s\n",
		"rate", "throughput", "p50(ms)", "p99(ms)", "max(ms)", "failed", "slo")
	for _, p := range sw.Points {
		status := "ok"
		if !p.OK {
			status = "FAIL"
		}
		if p.OK && p.Rate == sw.Knee {
			status = "ok*knee"
		}
		fmt.Fprintf(&b, "%10.0f %12.1f %10.3f %10.3f %10.3f %7d %8s\n",
			p.Rate, p.Throughput, p.P50*1e3, p.P99*1e3, p.Max*1e3, p.Failed, status)
	}
	return b.String()
}
