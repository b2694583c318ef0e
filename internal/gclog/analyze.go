package gclog

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"jvmgc/internal/simtime"
	"jvmgc/internal/stats"
)

// Summary is a statistical digest of a log's stop-the-world behaviour —
// what an engineer computes from a production GC log before anything
// else.
type Summary struct {
	Pauses        int
	FullGCs       int
	Span          simtime.Duration // first pause start to last pause end
	TotalPause    simtime.Duration
	MaxPause      simtime.Duration
	AvgPause      simtime.Duration
	P50, P90, P99 simtime.Duration
	// PauseFraction is total pause time over the log's span.
	PauseFraction float64
	// Throughput is 1 - PauseFraction (the classic GC "throughput"
	// metric).
	Throughput float64
}

// Summarize computes the digest. A log without pauses yields a zero
// Summary.
func Summarize(l *Log) Summary {
	pauses := l.Pauses()
	var s Summary
	if len(pauses) == 0 {
		s.Throughput = 1
		return s
	}
	durations := make([]float64, len(pauses))
	for i, e := range pauses {
		durations[i] = float64(e.Duration)
		s.TotalPause += e.Duration
		if e.Duration > s.MaxPause {
			s.MaxPause = e.Duration
		}
		if e.Kind == PauseFull {
			s.FullGCs++
		}
	}
	s.Pauses = len(pauses)
	s.AvgPause = s.TotalPause / simtime.Duration(s.Pauses)
	s.Span = pauses[len(pauses)-1].End().Sub(pauses[0].Start)
	// Percentiles interpolate between order statistics, by the rule
	// stats.Percentiles applies everywhere else, rounded to the nearest
	// nanosecond. It cannot fail: durations is not empty and every
	// percentile is in range.
	ps, _ := stats.Percentiles(durations, 50, 90, 99)
	s.P50 = simtime.Duration(math.Round(ps[0]))
	s.P90 = simtime.Duration(math.Round(ps[1]))
	s.P99 = simtime.Duration(math.Round(ps[2]))
	if s.Span > 0 {
		s.PauseFraction = float64(s.TotalPause) / float64(s.Span)
		if s.PauseFraction > 1 {
			s.PauseFraction = 1
		}
	}
	s.Throughput = 1 - s.PauseFraction
	return s
}

// Render prints the summary as a compact report block.
func (s Summary) Render() string {
	if s.Pauses == 0 {
		return "no stop-the-world pauses\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pauses:        %d (%d full GCs)\n", s.Pauses, s.FullGCs)
	fmt.Fprintf(&b, "span:          %v\n", s.Span)
	fmt.Fprintf(&b, "total paused:  %v (%.2f%% of span, throughput %.2f%%)\n",
		s.TotalPause, 100*s.PauseFraction, 100*s.Throughput)
	fmt.Fprintf(&b, "pause avg/max: %v / %v\n", s.AvgPause, s.MaxPause)
	fmt.Fprintf(&b, "p50/p90/p99:   %v / %v / %v\n", s.P50, s.P90, s.P99)
	return b.String()
}

// Histogram buckets the pause durations into half-decade bins and renders
// them as text bars — the at-a-glance pause profile.
func Histogram(l *Log) string {
	pauses := l.Pauses()
	if len(pauses) == 0 {
		return "no stop-the-world pauses\n"
	}
	bounds := []simtime.Duration{
		simtime.Millisecond, 3 * simtime.Millisecond,
		10 * simtime.Millisecond, 30 * simtime.Millisecond,
		100 * simtime.Millisecond, 300 * simtime.Millisecond,
		simtime.Second, 3 * simtime.Second,
		10 * simtime.Second, 30 * simtime.Second,
		simtime.Minute,
	}
	labels := make([]string, 0, len(bounds)+1)
	prev := simtime.Duration(0)
	for _, bd := range bounds {
		labels = append(labels, fmt.Sprintf("%v–%v", prev, bd))
		prev = bd
	}
	labels = append(labels, fmt.Sprintf(">%v", prev))

	counts := make([]int, len(bounds)+1)
	maxCount := 0
	for _, e := range pauses {
		i := sort.Search(len(bounds), func(k int) bool { return e.Duration <= bounds[k] })
		counts[i]++
		if counts[i] > maxCount {
			maxCount = counts[i]
		}
	}

	var b strings.Builder
	const barWidth = 50
	for i, c := range counts {
		if c == 0 {
			continue
		}
		bar := (c*barWidth + maxCount - 1) / maxCount
		fmt.Fprintf(&b, "%12s %6d %s\n", labels[i], c, strings.Repeat("#", bar))
	}
	return b.String()
}
