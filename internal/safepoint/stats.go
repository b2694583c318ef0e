package safepoint

import (
	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
)

// Stats accumulates the time-to-safepoint distribution of a run — the
// full -XX:+PrintSafepointStatistics picture rather than just
// count/total/max. It retains every sample, so percentiles are exact;
// their rendered digits are pinned by the seed-42 digest.
type Stats struct {
	samples []float64 // seconds
	count   int
	total   simtime.Duration
	max     simtime.Duration
	last    simtime.Duration
}

// Record folds one safepoint's TTSP into the distribution.
func (s *Stats) Record(d simtime.Duration) {
	if s.samples == nil {
		s.samples = make([]float64, 0, 32)
	}
	s.samples = append(s.samples, d.Seconds())
	s.count++
	s.total += d
	if d > s.max {
		s.max = d
	}
	s.last = d
}

// Count returns the number of safepoints recorded.
func (s *Stats) Count() int { return s.count }

// Total returns the summed TTSP across all safepoints.
func (s *Stats) Total() simtime.Duration { return s.total }

// Max returns the largest TTSP recorded.
func (s *Stats) Max() simtime.Duration { return s.max }

// Last returns the most recently recorded TTSP.
func (s *Stats) Last() simtime.Duration { return s.last }

// Mean returns the average TTSP, or zero with no samples.
func (s *Stats) Mean() simtime.Duration {
	if s.count == 0 {
		return 0
	}
	return s.total / simtime.Duration(s.count)
}

// Percentiles returns one TTSP per requested percentile, from one copy
// of the retained samples (stats.Percentiles) — the summary paths ask
// for p50/p95/p99 together. Zeros with no samples.
func (s *Stats) Percentiles(ps ...float64) []simtime.Duration {
	out := make([]simtime.Duration, len(ps))
	if s.count == 0 {
		return out
	}
	vs, err := stats.Percentiles(s.samples, ps...)
	if err != nil {
		return out
	}
	for i, v := range vs {
		out[i] = simtime.Seconds(v)
	}
	return out
}
