package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"jvmgc/internal/xrand"
)

// mkClientRun builds a synthetic client trace: steady ~1ms operations at
// 100/s over 1000s, plus pause shadows — during each GC pause the
// operation in flight observes the pause duration.
func mkClientRun() ([]LatencySample, []Interval) {
	rng := xrand.New(7)
	var pauses []Interval
	for i := 1; i <= 9; i++ {
		start := float64(i) * 100
		pauses = append(pauses, Interval{Start: start, End: start + 0.5})
	}
	var samples []LatencySample
	pi := 0
	for t := 0.0; t < 1000; t += 0.01 {
		lat := rng.Jitter(1.0, 0.2) // ms
		// A closed-loop client issues the op that hits the pause and then
		// stalls: the in-flight op absorbs the rest of the pause, and the
		// client resumes after the pause end.
		for pi < len(pauses) && t > pauses[pi].End {
			pi++
		}
		if pi < len(pauses) && t >= pauses[pi].Start && t < pauses[pi].End {
			lat += (pauses[pi].End - t) * 1e3
			samples = append(samples, LatencySample{Completed: t + lat/1e3, LatencyMS: lat})
			t = pauses[pi].End // skip to pause end; loop's += 0.01 resumes pacing
			continue
		}
		samples = append(samples, LatencySample{Completed: t + lat/1e3, LatencyMS: lat})
	}
	return samples, pauses
}

func TestIntervalOverlaps(t *testing.T) {
	a := Interval{0, 2}
	cases := []struct {
		b    Interval
		want bool
	}{
		{Interval{1, 3}, true},
		{Interval{2, 3}, false}, // half-open: touching doesn't overlap
		{Interval{-1, 0}, false},
		{Interval{0.5, 1.5}, true},
		{Interval{-1, 5}, true},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v", a, c.b, got)
		}
	}
}

func TestAnalyzeBandsEmpty(t *testing.T) {
	rep := AnalyzeBands(nil, nil, 0.001)
	if rep.N != 0 || rep.AvgMS != 0 {
		t.Error("empty report nonzero")
	}
}

func TestAnalyzeBandsShape(t *testing.T) {
	samples, pauses := mkClientRun()
	rep := AnalyzeBands(samples, pauses, 0.001)

	if rep.N != int64(len(samples)) {
		t.Errorf("N = %d", rep.N)
	}
	// Average stays near the base latency: spikes are rare.
	if rep.AvgMS < 0.8 || rep.AvgMS > 2.0 {
		t.Errorf("avg = %v ms", rep.AvgMS)
	}
	// Max is a pause shadow (~500ms).
	if rep.MaxMS < 300 || rep.MaxMS > 700 {
		t.Errorf("max = %v ms", rep.MaxMS)
	}
	// The vast majority of requests are in the normal band, and no GC is
	// invisible (every pause produced a shadow far above 1.5x).
	if rep.Normal.Reqs < 90 {
		t.Errorf("normal band reqs = %v%%", rep.Normal.Reqs)
	}
	if rep.Normal.GCs != 0 {
		t.Errorf("normal band GCs = %v%%, want 0", rep.Normal.GCs)
	}
	// Every exceedance band that exists must have 100% GC coverage here:
	// all pauses are long enough to push some request beyond any band
	// below 500x.
	if len(rep.Above) == 0 {
		t.Fatal("no exceedance bands")
	}
	for _, row := range rep.Above[:3] {
		if row.GCs != 100 {
			t.Errorf("band %s GCs = %v%%, want 100", row.Label, row.GCs)
		}
	}
	// Band request percentages decrease monotonically.
	for i := 1; i < len(rep.Above); i++ {
		if rep.Above[i].Reqs > rep.Above[i-1].Reqs {
			t.Errorf("band %s reqs %v > previous %v",
				rep.Above[i].Label, rep.Above[i].Reqs, rep.Above[i-1].Reqs)
		}
	}
}

func TestAnalyzeBandsStopsAtMinPct(t *testing.T) {
	samples, pauses := mkClientRun()
	short := AnalyzeBands(samples, pauses, 5.0)
	long := AnalyzeBands(samples, pauses, 0.0001)
	if len(short.Above) > len(long.Above) {
		t.Errorf("higher cutoff produced more bands: %d vs %d", len(short.Above), len(long.Above))
	}
	if len(short.Above) < 1 {
		t.Error("cutoff removed all bands")
	}
}

func TestAnalyzeBandsNoGCs(t *testing.T) {
	samples, _ := mkClientRun()
	rep := AnalyzeBands(samples, nil, 0.001)
	if rep.Normal.GCs != 0 {
		t.Errorf("GCs%% without pauses = %v", rep.Normal.GCs)
	}
	for _, row := range rep.Above {
		if row.GCs != 0 {
			t.Errorf("band %s GCs = %v without pauses", row.Label, row.GCs)
		}
	}
}

func TestAnalyzeBandsQuietGC(t *testing.T) {
	// A pause overlapped only by normal-latency requests must count in
	// the normal band's GC column.
	samples := []LatencySample{
		{Completed: 10.0, LatencyMS: 1},
		{Completed: 10.001, LatencyMS: 1},
		{Completed: 20.0, LatencyMS: 1},
	}
	pauses := []Interval{{Start: 9.9995, End: 10.0005}}
	rep := AnalyzeBands(samples, pauses, 0.001)
	if rep.Normal.GCs != 100 {
		t.Errorf("quiet GC not counted: %v%%", rep.Normal.GCs)
	}
}

func TestBandLabels(t *testing.T) {
	for mult, want := range map[float64]string{2: ">2x AVG", 4: ">4x AVG", 8: ">8x AVG", 16: ">16x AVG", 32: ">32x AVG", 64: ">64x AVG", 512: ">>AVG"} {
		if got := bandLabel(mult); got != want {
			t.Errorf("bandLabel(%v) = %q", mult, got)
		}
	}
}

func TestAnalyzeBandsReqPercentagesSumSanity(t *testing.T) {
	samples, pauses := mkClientRun()
	rep := AnalyzeBands(samples, pauses, 0.001)
	// Normal + everything above 2x cannot exceed 100% (plus the gap
	// between 1.5x and 2x).
	if rep.Normal.Reqs+rep.Above[0].Reqs > 100+1e-9 {
		t.Errorf("bands overlap: %v + %v", rep.Normal.Reqs, rep.Above[0].Reqs)
	}
	if math.IsNaN(rep.Normal.Reqs) {
		t.Error("NaN percentage")
	}
}

// analyzeBandsSorted is the differential oracle for AnalyzeBands, a
// sort-based analysis of the same statistics: it copies the samples
// twice, sorts one copy by completion for a merged sweep over the
// start-sorted pauses, and binary-searches the other, sorted by latency,
// for each band count. Its sweep stops each pause's scan at completion >
// pause end + max latency. That bound never drops an overlapping sample,
// which is why AnalyzeBands needs no such check: with correctly rounded
// arithmetic, Completed - Latency/1e3 < End holds only if Completed <
// End + Latency/1e3 exactly, so Completed <= End + max latency.
func analyzeBandsSorted(samples []LatencySample, pauses []Interval, minReqPct float64) BandReport {
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
	n := float64(len(samples))

	byTime := append([]LatencySample(nil), samples...)
	sort.Slice(byTime, func(i, j int) bool { return byTime[i].Completed < byTime[j].Completed })
	lat := make([]float64, len(samples))
	for i, s := range samples {
		lat[i] = s.LatencyMS
	}
	sort.Float64s(lat)

	worst := make([]float64, len(pauses))
	hasReq := make([]bool, len(pauses))
	order := make([]int, len(pauses))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return pauses[order[a]].Start < pauses[order[b]].Start })
	maxSec := rep.MaxMS / 1e3
	lo := 0
	for _, pi := range order {
		p := pauses[pi]
		for lo < len(byTime) && byTime[lo].Completed <= p.Start {
			lo++
		}
		for i := lo; i < len(byTime); i++ {
			s := byTime[i]
			if s.Completed > p.End+maxSec {
				break
			}
			if s.interval().Overlaps(p) {
				hasReq[pi] = true
				if s.LatencyMS > worst[pi] {
					worst[pi] = s.LatencyMS
				}
			}
		}
	}
	gcTotal := float64(len(pauses))

	countAbove := func(thresh float64) int {
		return len(lat) - sort.Search(len(lat), func(k int) bool { return lat[k] > thresh })
	}

	bandLo, bandHi := 0.5*avg, 1.5*avg
	first := sort.Search(len(lat), func(k int) bool { return lat[k] >= bandLo })
	inNormal := len(lat) - first - countAbove(bandHi)
	quiet := 0
	for pi := range pauses {
		if hasReq[pi] && worst[pi] <= bandHi {
			quiet++
		}
	}
	rep.Normal = BandRow{Label: "0.5x-1.5x AVG", Reqs: 100 * float64(inNormal) / n}
	if gcTotal > 0 {
		rep.Normal.GCs = 100 * float64(quiet) / gcTotal
	}

	for mult := 2.0; ; mult *= 2 {
		thresh := mult * avg
		count := countAbove(thresh)
		pct := 100 * float64(count) / n
		if pct < minReqPct && len(rep.Above) > 0 {
			break
		}
		row := BandRow{Label: bandLabel(mult), Reqs: pct}
		if gcTotal > 0 {
			hit := 0
			for pi := range pauses {
				if worst[pi] > thresh {
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

// checkAgainstOracle fails t unless AnalyzeBands reproduces the oracle's
// report field for field, float bits included.
func checkAgainstOracle(t *testing.T, samples []LatencySample, pauses []Interval, minReqPct float64) {
	t.Helper()
	got := fmt.Sprintf("%#v", AnalyzeBands(samples, pauses, minReqPct))
	want := fmt.Sprintf("%#v", analyzeBandsSorted(samples, pauses, minReqPct))
	if got != want {
		t.Fatalf("AnalyzeBands differs from the sort-based oracle\nsamples %v\npauses %v\nminReqPct %v\ngot  %s\nwant %s",
			samples, pauses, minReqPct, got, want)
	}
}

// randomBandCase draws one differential case: quarter-second completion
// times and latencies on a grid (so ties, exact band edges, starts at
// pause ends and completions at the pause-end-plus-max bound all recur),
// a few spikes, samples sorted, nearly sorted or shuffled, and pauses
// that overlap, nest, have zero length and come in any order.
func randomBandCase(rng *xrand.Rand) ([]LatencySample, []Interval, float64) {
	samples := make([]LatencySample, 1+rng.Intn(200))
	span := 1 + rng.Intn(80)
	coarse := rng.Bool(0.5) // latencies in whole quarter seconds
	for i := range samples {
		lat := float64(1+rng.Intn(8)) / 4
		if coarse {
			lat *= 1000
		} else if rng.Bool(0.05) {
			lat *= float64(int(1) << rng.Intn(12))
		}
		samples[i] = LatencySample{Completed: float64(rng.Intn(4*span)) / 4, LatencyMS: lat}
	}
	switch rng.Intn(3) {
	case 0:
		sort.Slice(samples, func(i, j int) bool { return samples[i].Completed < samples[j].Completed })
	case 1:
		sort.Slice(samples, func(i, j int) bool { return samples[i].Completed < samples[j].Completed })
		for k := rng.Intn(len(samples)); k > 0; k-- {
			i := rng.Intn(len(samples))
			j := i + rng.Intn(3)
			if j < len(samples) {
				samples[i], samples[j] = samples[j], samples[i]
			}
		}
	}
	pauses := make([]Interval, rng.Intn(13))
	for i := range pauses {
		start := float64(rng.Intn(4*span)) / 4
		pauses[i] = Interval{Start: start, End: start + float64(rng.Intn(13))/4}
	}
	// Completions within an ulp of a pause end plus the largest latency,
	// where the oracle's completion bound cuts its scan.
	if len(pauses) > 0 && rng.Bool(0.3) {
		maxMS := 0.0
		for _, s := range samples {
			maxMS = math.Max(maxMS, s.LatencyMS)
		}
		for k := rng.Intn(4); k >= 0; k-- {
			bound := pauses[rng.Intn(len(pauses))].End + maxMS/1e3
			i := rng.Intn(len(samples))
			samples[i].Completed = []float64{math.Nextafter(bound, 0), bound, math.Nextafter(bound, math.Inf(1))}[rng.Intn(3)]
			samples[i].LatencyMS = []float64{samples[i].LatencyMS, maxMS}[rng.Intn(2)]
		}
	}
	minReqPct := []float64{0, 0.01, 1, 5, 100}[rng.Intn(5)]
	return samples, pauses, minReqPct
}

func TestAnalyzeBandsMatchesSortedOracle(t *testing.T) {
	rng := xrand.New(1)
	for c := 0; c < 4000; c++ {
		samples, pauses, minReqPct := randomBandCase(rng)
		checkAgainstOracle(t, samples, pauses, minReqPct)
	}
	samples, pauses := mkClientRun()
	checkAgainstOracle(t, samples, pauses, 0.001)
}

// parseBandCase decodes the fuzz target's text form: samples as
// "completed:latencyMS" and pauses as "start:end", separated by spaces.
// It declines (ok = false) malformed or oversized input, non-finite
// values and negative latencies, which AnalyzeBands does not accept: a
// negative mean sends every doubled threshold to −∞, and the exceedance
// bands never end in either version.
func parseBandCase(sampleText, pauseText string) (samples []LatencySample, pauses []Interval, ok bool) {
	pairs := func(text string, limit int, add func(a, b float64)) bool {
		fields := strings.Fields(text)
		if len(fields) > limit {
			return false
		}
		for _, f := range fields {
			as, bs, found := strings.Cut(f, ":")
			a, errA := strconv.ParseFloat(as, 64)
			b, errB := strconv.ParseFloat(bs, 64)
			if !found || errA != nil || errB != nil ||
				math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
				return false
			}
			add(a, b)
		}
		return true
	}
	ok = pairs(sampleText, 256, func(c, l float64) {
		samples = append(samples, LatencySample{Completed: c, LatencyMS: l})
	}) && pairs(pauseText, 32, func(s, e float64) {
		pauses = append(pauses, Interval{Start: s, End: e})
	})
	for _, s := range samples {
		ok = ok && s.LatencyMS >= 0
	}
	return samples, pauses, ok
}

// FuzzAnalyzeBands holds AnalyzeBands equal to the sort-based oracle.
// The committed corpus pins the edges: overlapping pauses with unsorted
// samples, latencies exactly at 1.5·avg and 2^k·avg, a sample starting
// exactly at a pause end, zero-length pauses, no pauses, a completion
// exactly at pause end plus max latency, one sample, equal latencies.
func FuzzAnalyzeBands(f *testing.F) {
	f.Fuzz(func(t *testing.T, sampleText, pauseText string, minReqPct float64) {
		samples, pauses, ok := parseBandCase(sampleText, pauseText)
		if !ok {
			return
		}
		checkAgainstOracle(t, samples, pauses, minReqPct)
	})
}
