package stats

import "sort"

// Interval is a half-open time interval [Start, End) in seconds, used to
// represent GC pauses when correlating them with request latencies.
type Interval struct {
	Start, End float64
}

// Overlaps reports whether two intervals intersect.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Start < other.End && other.Start < iv.End
}

// LatencySample is one completed client operation: the instant it
// completed (seconds since experiment start) and its latency in
// milliseconds.
type LatencySample struct {
	Completed float64 // seconds
	LatencyMS float64
}

// interval returns the operation's service interval in seconds.
func (s LatencySample) interval() Interval {
	return Interval{Start: s.Completed - s.LatencyMS/1e3, End: s.Completed}
}

// BandRow is one row pair of the paper's Tables 5–7: the percentage of
// requests in a latency band, and the percentage of GC pauses that
// coincide with at least one request in that band.
type BandRow struct {
	Label string
	Reqs  float64 // % of requests in the band
	GCs   float64 // % of GCs with an overlapping request in the band
}

// BandReport is the paper's Tables 5–7 statistic block for one operation
// type under one collector.
type BandReport struct {
	N      int64
	AvgMS  float64
	MaxMS  float64
	MinMS  float64
	Normal BandRow   // 0.5x–1.5x AVG
	Above  []BandRow // >2x, >4x, >8x, ... AVG
}

// AnalyzeBands computes the band statistics of Tables 5–7.
//
// Bands follow the paper's §4.2 construction: the "normal" band holds
// latencies within 0.5×–1.5× of the average; the exceedance bands hold
// latencies above 2ⁿ× the average for n = 1, 2, 3, …, extended until the
// request percentage falls below minReqPct (the paper stops "until the
// percentage of points became too close to 0").
//
// The %GCs column counts, for each band, the fraction of GC pauses that
// overlap at least one request whose latency lies in that band. For the
// normal band it instead counts pauses whose overlapping requests ALL lie
// within it — a GC invisible in the latency signal — which is how the
// paper's tables arrive at 0.0% there while every exceedance band shows
// ~100%.
//
// The analysis is two linear passes over the samples, which it neither
// copies nor sorts and which may come in any order: a Welford fold for
// the average, then a BandCounter fed every sample.
//
// Latencies must be non-negative: a negative mean sends every doubled
// threshold to −∞, so the exceedance bands would never end. A zero mean
// ends once the threshold 0·∞ turns NaN.
func AnalyzeBands(samples []LatencySample, pauses []Interval, minReqPct float64) BandReport {
	var w Welford
	for _, s := range samples {
		w.Add(s.LatencyMS)
	}
	c := NewBandCounter(w, pauses)
	for _, s := range samples {
		c.Add(s)
	}
	return c.Report(minReqPct)
}

// BandCounter is AnalyzeBands' second pass as a stream: built from the
// first pass's Welford over the same samples, it takes every sample
// once through Add, in any order, and Report returns the band report.
// A caller holding several sample streams in one log can so feed one
// counter per stream in a single walk, with no copy of any stream.
//
// Each sample tallies how many of the thresholds 2·avg, 4·avg, … it
// exceeds, so the count above band k is a suffix sum of the tally. Each
// sample also finds its overlapping pauses among those sorted by start:
// a cursor holds the prefix that starts before the sample completes,
// and walking that prefix backwards stops at the first pause whose
// running maximum end does not reach the sample's start. On the
// generators' nearly completion-ordered samples the cursor moves O(1)
// per sample.
type BandCounter struct {
	w              Welford
	avg            float64
	bandLo, bandHi float64
	// sorted holds the pauses by start, reach[i] the largest end among
	// sorted[:i+1]; worst[i] is the highest latency of a sample
	// overlapping sorted[i], and hasReq[i] whether there was one.
	sorted []Interval
	reach  []float64
	worst  []float64
	hasReq []bool
	// over[k] counts the samples above exactly k+1 thresholds.
	over       []int
	geLo, gtHi int
	// cursor counts the sorted pauses that start before the latest
	// sample completes.
	cursor int
}

// NewBandCounter returns the counter for the samples folded into w,
// against pauses, which it does not modify. With no samples it allocates
// nothing, and Report returns the zero BandReport.
func NewBandCounter(w Welford, pauses []Interval) BandCounter {
	b := BandCounter{w: w}
	if w.N() == 0 {
		return b
	}
	b.avg = w.Mean()
	b.bandLo, b.bandHi = 0.5*b.avg, 1.5*b.avg
	b.sorted = append([]Interval(nil), pauses...)
	sorted := b.sorted
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	b.reach = make([]float64, len(sorted))
	for i, p := range sorted {
		b.reach[i] = p.End
		if i > 0 && b.reach[i-1] > p.End {
			b.reach[i] = b.reach[i-1]
		}
	}
	b.worst = make([]float64, len(sorted))
	b.hasReq = make([]bool, len(sorted))
	return b
}

// Add counts one sample. Every sample folded into the Welford goes
// through Add exactly once.
func (b *BandCounter) Add(s LatencySample) {
	l := s.LatencyMS
	if l >= b.bandLo {
		b.geLo++
	}
	if l > b.bandHi {
		b.gtHi++
	}
	k := 0
	for mult := 2.0; l > mult*b.avg; mult *= 2 {
		k++
	}
	if k > 0 {
		for len(b.over) < k {
			b.over = append(b.over, 0)
		}
		b.over[k-1]++
	}

	sorted, c := b.sorted, b.cursor
	for c < len(sorted) && sorted[c].Start < s.Completed {
		c++
	}
	for c > 0 && !(sorted[c-1].Start < s.Completed) {
		c--
	}
	b.cursor = c
	iv := s.interval()
	for i := c - 1; i >= 0 && b.reach[i] > iv.Start; i-- {
		if iv.Overlaps(sorted[i]) {
			b.hasReq[i] = true
			if l > b.worst[i] {
				b.worst[i] = l
			}
		}
	}
}

// Report returns the band report of the samples added, extending the
// exceedance bands while their request share is at least minReqPct.
// It consumes the counter: call it once, after the last Add.
func (b *BandCounter) Report(minReqPct float64) BandReport {
	var rep BandReport
	if b.w.N() == 0 {
		return rep
	}
	rep.N = b.w.N()
	rep.AvgMS = b.w.Mean()
	rep.MinMS = b.w.Min()
	rep.MaxMS = b.w.Max()
	avg, over := b.avg, b.over

	// Suffix sums: over[k] becomes the count above band k.
	for k := len(over) - 2; k >= 0; k-- {
		over[k] += over[k+1]
	}

	n := float64(rep.N)
	gcTotal := float64(len(b.sorted))
	quiet := 0
	for pi := range b.worst {
		if b.hasReq[pi] && b.worst[pi] <= b.bandHi {
			quiet++
		}
	}
	rep.Normal = BandRow{Label: "0.5x-1.5x AVG", Reqs: 100 * float64(b.geLo-b.gtHi) / n}
	if gcTotal > 0 {
		rep.Normal.GCs = 100 * float64(quiet) / gcTotal
	}

	// Exceedance bands: >2x, >4x, >8x, ...
	for mult := 2.0; ; mult *= 2 {
		thresh := mult * avg
		count := 0
		if band := len(rep.Above); band < len(over) {
			count = over[band]
		}
		pct := 100 * float64(count) / n
		if pct < minReqPct && len(rep.Above) > 0 {
			break
		}
		row := BandRow{Label: bandLabel(mult), Reqs: pct}
		if gcTotal > 0 {
			hit := 0
			for _, wl := range b.worst {
				if wl > thresh {
					hit++
				}
			}
			row.GCs = 100 * float64(hit) / gcTotal
		}
		rep.Above = append(rep.Above, row)
		if count == 0 {
			break
		}
	}
	return rep
}

func bandLabel(mult float64) string {
	switch mult {
	case 2:
		return ">2x AVG"
	case 4:
		return ">4x AVG"
	case 8:
		return ">8x AVG"
	case 16:
		return ">16x AVG"
	case 32:
		return ">32x AVG"
	case 64:
		return ">64x AVG"
	case 128:
		return ">128x AVG"
	case 256:
		return ">256x AVG"
	default:
		return ">>AVG"
	}
}
