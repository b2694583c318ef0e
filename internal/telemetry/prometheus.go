package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text-exposition-format export: a point-in-time snapshot of
// the recording as a node-exporter-style scrape body. Counters become
// <name>_total counter families; GC pause and TTSP distributions become
// summary families with p50/p95/p99 quantiles; the last time-series
// sample becomes a set of gauges. Families are emitted in sorted order so
// identical recordings export byte-identically. The family-building
// machinery lives in promexport.go as the exported PromSnapshot, which
// other subsystems reuse for their own /metrics surfaces.

const promPrefix = "jvmgc_"

type promFamily struct {
	name  string // without prefix
	typ   string // counter | gauge | summary | histogram
	help  string
	lines []string // fully rendered sample lines
	// ex holds per-line OpenMetrics exemplar suffixes (empty = none);
	// when non-nil it is aligned with lines and only rendered in
	// OpenMetrics mode.
	ex []string
}

// WritePrometheus renders the recording in Prometheus text format.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	var snap PromSnapshot

	r.Metrics().AddTo(&snap)
	snap.Summary("gc_pause_seconds",
		"Stop-the-world GC pause durations.", r.pauseSeconds())
	snap.Summary("safepoint_ttsp_seconds",
		"Time-to-safepoint (bringing mutators to a stop) durations.",
		r.childSeconds("ttsp"))

	if samples := r.Samples(); len(samples) > 0 {
		last := samples[len(samples)-1]
		gauge := func(name, help string, lines ...string) {
			snap.family(promFamily{name: name, typ: "gauge", help: help, lines: lines})
		}
		gauge("heap_used_bytes", "Occupancy per heap space at the last sample.",
			fmt.Sprintf("%sheap_used_bytes{space=\"eden\"} %d", promPrefix, int64(last.Eden)),
			fmt.Sprintf("%sheap_used_bytes{space=\"survivor\"} %d", promPrefix, int64(last.Survivor)),
			fmt.Sprintf("%sheap_used_bytes{space=\"old\"} %d", promPrefix, int64(last.Old)),
			fmt.Sprintf("%sheap_used_bytes{space=\"total\"} %d", promPrefix, int64(last.Heap)))
		gauge("allocation_rate_bytes_per_second",
			"Effective mutator allocation rate at the last sample.",
			fmt.Sprintf("%sallocation_rate_bytes_per_second %g", promPrefix, last.AllocRate))
		gauge("tlab_refill_rate_per_second",
			"Aggregate TLAB refill frequency at the last sample.",
			fmt.Sprintf("%stlab_refill_rate_per_second %g", promPrefix, last.TLABRefillRate))
		gauge("mutator_utilization",
			"Mutator progress multiplier (0 while stopped) at the last sample.",
			fmt.Sprintf("%smutator_utilization %g", promPrefix, last.MutatorUtil))
		gauge("gc_cpu_share",
			"Share of machine cores working for the collector at the last sample.",
			fmt.Sprintf("%sgc_cpu_share %g", promPrefix, last.GCCPU))
		gauge("samples_recorded",
			"Number of time-series samples in the recording.",
			fmt.Sprintf("%ssamples_recorded %d", promPrefix, len(samples)))
	}

	return snap.Write(w)
}

// pauseSeconds collects the durations of all stop-the-world pause spans
// (top-level "gc"-track spans).
func (r *Recorder) pauseSeconds() []float64 {
	var out []float64
	for _, s := range r.TrackSpans(TrackGC) {
		out = append(out, seconds(s.Duration))
	}
	return out
}

// childSeconds collects durations of child phase spans with the given
// name across all pauses.
func (r *Recorder) childSeconds(name string) []float64 {
	var out []float64
	for _, s := range r.Spans() {
		if s.Parent != 0 && s.Name == name {
			out = append(out, seconds(s.Duration))
		}
	}
	return out
}

// sanitizeMetric maps a dotted counter name onto the Prometheus metric
// charset: runs of characters outside [a-zA-Z0-9_] collapse to '_'.
func sanitizeMetric(name string) string {
	var b strings.Builder
	prevUnderscore := false
	for _, c := range name {
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9')
		if !ok {
			c = '_'
		}
		if c == '_' {
			if prevUnderscore {
				continue
			}
			prevUnderscore = true
		} else {
			prevUnderscore = false
		}
		b.WriteRune(c)
	}
	return strings.Trim(b.String(), "_")
}
