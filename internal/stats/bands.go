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
// The analysis is linear in the samples, which it neither copies nor
// sorts and which may come in any order. One pass counts band
// membership: each sample tallies how many of the thresholds 2·avg,
// 4·avg, … it exceeds, so the count above band k is a suffix sum of the
// tally. The same pass finds each sample's overlapping pauses among
// those sorted by start: a cursor holds the prefix that starts before
// the sample completes, and walking that prefix backwards stops at the
// first pause whose running maximum end does not reach the sample's
// start. On the generators' nearly completion-ordered samples the
// cursor moves O(1) per sample.
//
// Latencies must be non-negative: a negative mean sends every doubled
// threshold to −∞, so the exceedance bands would never end. A zero mean
// ends once the threshold 0·∞ turns NaN.
func AnalyzeBands(samples []LatencySample, pauses []Interval, minReqPct float64) BandReport {
	var rep BandReport
	if len(samples) == 0 {
		return rep
	}
	var w Welford
	for _, s := range samples {
		w.Add(s.LatencyMS)
	}
	rep.N = w.N()
	rep.AvgMS = w.Mean()
	rep.MinMS = w.Min()
	rep.MaxMS = w.Max()
	avg := rep.AvgMS

	sorted := append([]Interval(nil), pauses...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	reach := make([]float64, len(sorted))
	for i, p := range sorted {
		reach[i] = p.End
		if i > 0 && reach[i-1] > p.End {
			reach[i] = reach[i-1]
		}
	}
	worst := make([]float64, len(sorted))
	hasReq := make([]bool, len(sorted))

	var over []int // over[k]: samples above exactly k+1 thresholds
	bandLo, bandHi := 0.5*avg, 1.5*avg
	geLo, gtHi := 0, 0
	c := 0
	for _, s := range samples {
		l := s.LatencyMS
		if l >= bandLo {
			geLo++
		}
		if l > bandHi {
			gtHi++
		}
		k := 0
		for mult := 2.0; l > mult*avg; mult *= 2 {
			k++
		}
		if k > 0 {
			for len(over) < k {
				over = append(over, 0)
			}
			over[k-1]++
		}

		for c < len(sorted) && sorted[c].Start < s.Completed {
			c++
		}
		for c > 0 && !(sorted[c-1].Start < s.Completed) {
			c--
		}
		iv := s.interval()
		for i := c - 1; i >= 0 && reach[i] > iv.Start; i-- {
			if iv.Overlaps(sorted[i]) {
				hasReq[i] = true
				if l > worst[i] {
					worst[i] = l
				}
			}
		}
	}

	// Suffix sums: over[k] becomes the count above band k.
	for k := len(over) - 2; k >= 0; k-- {
		over[k] += over[k+1]
	}
	countAbove := func(band int, _ float64) int {
		if band < len(over) {
			return over[band]
		}
		return 0
	}
	rep.fillBands(geLo-gtHi, countAbove, worst, hasReq, minReqPct)
	return rep
}

// fillBands completes a report whose N and AvgMS are set: the normal
// band from inNormal requests, the exceedance bands from countAbove,
// which returns the number of requests above band's threshold (band 0
// is 2·avg, each next one doubles it), and the %GCs columns from each
// pause's worst overlapping latency and whether any request overlapped
// it.
func (rep *BandReport) fillBands(inNormal int, countAbove func(band int, thresh float64) int, worst []float64, hasReq []bool, minReqPct float64) {
	avg := rep.AvgMS
	n := float64(rep.N)
	gcTotal := float64(len(worst))

	// Normal band: 0.5x–1.5x.
	bandHi := 1.5 * avg
	quiet := 0
	for pi := range worst {
		if hasReq[pi] && worst[pi] <= bandHi {
			quiet++
		}
	}
	rep.Normal = BandRow{Label: "0.5x-1.5x AVG", Reqs: 100 * float64(inNormal) / n}
	if gcTotal > 0 {
		rep.Normal.GCs = 100 * float64(quiet) / gcTotal
	}

	// Exceedance bands: >2x, >4x, >8x, ...
	for mult := 2.0; ; mult *= 2 {
		thresh := mult * avg
		count := countAbove(len(rep.Above), thresh)
		pct := 100 * float64(count) / n
		if pct < minReqPct && len(rep.Above) > 0 {
			break
		}
		row := BandRow{Label: bandLabel(mult), Reqs: pct}
		if gcTotal > 0 {
			hit := 0
			for _, wl := range worst {
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
