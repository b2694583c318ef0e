package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"jvmgc/internal/hdrhist"
	"jvmgc/internal/telemetry"
)

// FuzzParsePromText holds ParsePromText to what PromSnapshot.Write
// emits: every counter, gauge, labeled gauge and histogram sample, in
// classic and OpenMetrics mode (bucket exemplars included), parses back
// to its name, labels and value bits, whatever valid UTF-8 the label
// values and the exemplar label hold.
func FuzzParsePromText(f *testing.F) {
	f.Add("node-a", "0af7651916cd43dd8448eb211c80319c", 3.0, int64(7), 0.25, true)
	f.Add(`a}b" # {c="d"} 1`, "x\ny\\z", -0.0, int64(-1), math.Inf(1), false)
	f.Fuzz(func(t *testing.T, node, label string, gauge float64, count int64, v float64, openMetrics bool) {
		if !utf8.ValidString(node) || !utf8.ValidString(label) {
			t.Skip("label values are UTF-8")
		}
		snap := telemetry.PromSnapshot{OpenMetrics: openMetrics}
		snap.Counter("fuzz.a", "Counter.", count)
		snap.Gauge("fuzz.b", "Gauge.", gauge)
		snap.LabeledGauge("fuzz.c", "Labeled gauge.", []telemetry.LabeledValue{{
			Labels: []telemetry.Label{{Name: "node", Value: node}, {Name: "peer", Value: label}},
			Value:  gauge,
		}})
		// A coarse histogram keeps each input cheap; the lines it writes
		// have the same form at any resolution.
		ex := hdrhist.NewExemplars(hdrhist.New(hdrhist.Config{SubBucketBits: 1, Min: 1e-3, Max: 1e3}))
		ex.Hist().Record(0.25)
		ex.Observe(v, label, 1.7e9)
		snap.HistogramExemplars("fuzz.d", "Histogram.", ex.Hist(), ex)
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}

		// Families render in name order: a, b, c, d.
		want := []MetricPoint{
			{Name: "jvmgc_fuzz_a_total", Value: float64(count)},
			{Name: "jvmgc_fuzz_b", Value: gauge},
			{Name: "jvmgc_fuzz_c", Labels: map[string]string{"node": node, "peer": label}, Value: gauge},
		}
		h := ex.Hist()
		cum := uint64(0)
		h.ForEachBucket(func(b hdrhist.Bucket) {
			cum += b.Count
			want = append(want, MetricPoint{Name: "jvmgc_fuzz_d_bucket",
				Labels: map[string]string{"le": fmt.Sprintf("%g", b.High)}, Value: float64(cum)})
		})
		want = append(want,
			MetricPoint{Name: "jvmgc_fuzz_d_bucket", Labels: map[string]string{"le": "+Inf"}, Value: float64(h.Count())},
			MetricPoint{Name: "jvmgc_fuzz_d_sum", Value: h.Sum()},
			MetricPoint{Name: "jvmgc_fuzz_d_count", Value: float64(h.Count())})

		got := ParsePromText(buf.String())
		if len(got) != len(want) {
			t.Fatalf("parsed %d samples, want %d:\n%s", len(got), len(want), buf.String())
		}
		for i, w := range want {
			g := got[i]
			sameValue := math.Float64bits(g.Value) == math.Float64bits(w.Value) ||
				math.IsNaN(g.Value) && math.IsNaN(w.Value)
			if g.Name != w.Name || !reflect.DeepEqual(g.Labels, w.Labels) || !sameValue {
				t.Fatalf("sample %d parsed as %+v, want %+v:\n%s", i, g, w, buf.String())
			}
		}
	})
}

// traceparentRE is W3C Trace Context's version-00 header: lowercase hex
// only (HEXDIGLC).
var traceparentRE = regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$`)

// FuzzParseTraceparent holds ParseTraceparent to the W3C grammar: it
// accepts exactly the headers the reference pattern matches with
// non-zero IDs, and Traceparent re-renders an accepted header's version,
// trace ID and parent ID byte for byte.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-00000000000000000000000000000000-b7ad6b7169203331-01")
	f.Add("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		want := traceparentRE.MatchString(h) &&
			h[3:35] != strings.Repeat("0", 32) && h[36:52] != strings.Repeat("0", 16)
		if ok != want {
			t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", h, ok, want)
		}
		if ok && Traceparent(tid, sid)[:52] != h[:52] {
			t.Fatalf("Traceparent re-renders %q as %q", h, Traceparent(tid, sid))
		}
	})
}
