// Package loadgen is a deterministic, coordinated-omission-safe load
// generator for the labd daemon and the fleet router.
//
// The generator is open-loop first: arrivals follow a seeded schedule
// (Poisson, uniform, or ramped) fixed before the run starts, and every
// request's latency is measured from its *intended* start time — the
// slot the schedule assigned it — to its completion. A service that
// stalls therefore charges the stall to every request that was supposed
// to start during it, which is the wrk2 correction for coordinated
// omission; a closed-loop mode (workers issue the next request as soon
// as the previous one returns) is provided for contrast, because the
// difference between the two curves *is* the coordinated-omission error.
//
// Determinism is load-bearing: a schedule is a pure function of
// (profile, rate, duration, seed), so two runs offer the same arrivals.
//
// FindKnee sweeps arrival rate and reports the saturation knee: the
// highest offered rate at which the p99 SLO held with zero failures.
package loadgen

import (
	"time"

	"jvmgc/internal/xrand"
)

// Schedule is an open-loop arrival plan: intended start offsets from
// the run's origin, sorted non-decreasing. The schedule is fully
// materialized before the run begins so that dispatching never does
// rate arithmetic under load.
type Schedule struct {
	// Offsets are intended start times relative to the run origin.
	Offsets []time.Duration
	// Rate is the offered rate the schedule was built for (req/s),
	// carried for reporting.
	Rate float64
}

// Len returns the number of planned arrivals.
func (s Schedule) Len() int { return len(s.Offsets) }

// Poisson builds an open-loop Poisson arrival schedule: exponential
// inter-arrival gaps with mean 1/rate, seeded, covering d. This is the
// canonical open-loop workload — memoryless arrivals do not slow down
// when the service does, which is exactly the property closed-loop
// generators lose.
func Poisson(rate float64, d time.Duration, seed uint64) Schedule {
	if rate <= 0 || d <= 0 {
		return Schedule{Rate: rate}
	}
	r := xrand.New(seed).SplitLabeled("loadgen.poisson")
	mean := float64(time.Second) / rate
	s := Schedule{Rate: rate, Offsets: make([]time.Duration, 0, int(rate*d.Seconds())+16)}
	for t := time.Duration(0); ; {
		t += time.Duration(r.Exp(mean))
		if t >= d {
			break
		}
		s.Offsets = append(s.Offsets, t)
	}
	return s
}
