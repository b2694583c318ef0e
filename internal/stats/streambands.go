package stats

import (
	"sort"

	"jvmgc/internal/hdrhist"
)

// BandAccumulator is the streaming counterpart of AnalyzeBands: it
// folds latency samples in as they are generated — O(1) per sample,
// zero allocations, O(histogram buckets + pauses) memory — instead of
// materializing the full sample slice and post-processing it.
//
// Exactness is split the same way the histogram splits it:
//
//   - N, AVG, MIN, MAX and every %GCs column are exact. The mean comes
//     from a Welford accumulator, and the per-pause worst-overlap sweep
//     runs online: samples arrive in ascending service-start order, so
//     a pause whose end precedes the current start can never be touched
//     again and the active-pause window only moves forward.
//   - The %reqs columns come from hdrhist exceedance counts, so a
//     sample within one bucket width (±0.8% relative) of a band edge
//     may be tallied on the wrong side. Band edges are multiples of
//     the run's average latency, never sample values, so this is a
//     sub-percent perturbation of the band percentages.
//
// Add requires ascending service-start order (Completed - Latency);
// the ycsb generator emits operations exactly that way.
type BandAccumulator struct {
	w         Welford
	hist      *hdrhist.Hist
	pauses    []Interval // sorted by start
	worst     []float64
	hasReq    []bool
	pFirst    int
	minReqPct float64
}

// NewBandAccumulator prepares a streaming band analysis against the
// given GC pauses (copied and sorted; the caller's slice is not
// retained).
func NewBandAccumulator(pauses []Interval, minReqPct float64) *BandAccumulator {
	sorted := append([]Interval(nil), pauses...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	return &BandAccumulator{
		hist:      hdrhist.New(hdrhist.Config{}),
		pauses:    sorted,
		worst:     make([]float64, len(sorted)),
		hasReq:    make([]bool, len(sorted)),
		minReqPct: minReqPct,
	}
}

// Add folds one sample in. Samples must arrive in ascending
// service-start order.
func (a *BandAccumulator) Add(s LatencySample) {
	a.w.Add(s.LatencyMS)
	a.hist.Record(s.LatencyMS)
	start := s.Completed - s.LatencyMS/1e3
	// Pauses ending before this sample's start are final: every later
	// sample starts no earlier, so nothing can overlap them anymore.
	for a.pFirst < len(a.pauses) && a.pauses[a.pFirst].End <= start {
		a.pFirst++
	}
	for i := a.pFirst; i < len(a.pauses) && a.pauses[i].Start < s.Completed; i++ {
		if s.interval().Overlaps(a.pauses[i]) {
			a.hasReq[i] = true
			if s.LatencyMS > a.worst[i] {
				a.worst[i] = s.LatencyMS
			}
		}
	}
}

// N returns the number of samples folded in.
func (a *BandAccumulator) N() int64 { return a.w.N() }

// Hist exposes the latency histogram (for percentile reporting beyond
// the band table).
func (a *BandAccumulator) Hist() *hdrhist.Hist { return a.hist }

// Report assembles the band table from the accumulated state, mirroring
// AnalyzeBands' construction.
func (a *BandAccumulator) Report() BandReport {
	var rep BandReport
	if a.w.N() == 0 {
		return rep
	}
	rep.N = a.w.N()
	rep.AvgMS = a.w.Mean()
	rep.MinMS = a.w.Min()
	rep.MaxMS = a.w.Max()
	above := func(thresh float64) int { return int(a.hist.CountAbove(thresh)) }
	// Normal band: 0.5x–1.5x (bucket-resolution edges).
	inNormal := above(0.5*rep.AvgMS) - above(1.5*rep.AvgMS)
	rep.fillBands(inNormal, func(_ int, thresh float64) int { return above(thresh) },
		a.worst, a.hasReq, a.minReqPct)
	return rep
}
