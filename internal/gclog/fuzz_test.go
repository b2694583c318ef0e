package gclog

import (
	"fmt"
	"strings"
	"testing"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// FuzzParse feeds arbitrary text to the log parser. The parser must
// never panic on malformed input (only Append's ordering invariant may
// panic, and Parse guards it), and everything it accepts must re-render
// and re-parse to the same aggregate statistics. Rendering is a fixed
// point from the second normalization on: the first may still carry a
// value into the next unit ("1024KB" parses to one MB and renders as
// "1MB"), but after that parse and render must not drift.
func FuzzParse(f *testing.F) {
	f.Add("1.000: [GC (young) (Allocation Failure) 4GB->1GB, 0.1000 secs]\n")
	f.Add("0.5: [Full GC (System.gc()) 8GB->2GB, 2.0000 secs]\n# comment\n")
	f.Add("garbage\n")
	f.Add("1.0: [GC (mixed) (Occupancy Threshold) 1.5MB->512B, 0.0001 secs]")
	f.Add(strings.Repeat("9.9: [GC (remark) (c) 1KB->1KB, 0.0010 secs]\n", 3))
	f.Add("1.000: [GC (young) (Allocation Failure) 9.999KB->1023.96KB, 0.1000 secs]\n" +
		"2.000: [Full GC (Ergonomics) -9.999KB->1.001GB, 0.2000 secs]\n")

	f.Fuzz(func(t *testing.T, input string) {
		log, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must round-trip stably.
		first := log.String()
		again, err := Parse(strings.NewReader(first))
		if err != nil {
			t.Fatalf("re-parse of rendered log failed: %v\nrendered:\n%s", err, first)
		}
		p1, f1 := log.CountPauses()
		p2, f2 := again.CountPauses()
		if p1 != p2 || f1 != f2 {
			t.Fatalf("counts changed across round trip: %d/%d vs %d/%d", p1, f1, p2, f2)
		}
		if log.TotalPause() < 0 || log.MaxPause() < 0 {
			t.Fatal("negative aggregate")
		}
		second := again.String()
		third, err := Parse(strings.NewReader(second))
		if err != nil {
			t.Fatalf("re-parse of normalized log failed: %v\nrendered:\n%s", err, second)
		}
		if got := third.String(); got != second {
			t.Fatalf("rendering drifts after normalization:\n%s\nthen:\n%s", second, got)
		}
	})
}

// FuzzEventFormat checks the append formatters against the fmt
// rendering they replace, byte for byte: Event.Format, Event.AppendFormat
// into a non-empty buffer, and the machine.Bytes rendering of both heap
// occupancies. The seed corpus under testdata/fuzz/FuzzEventFormat holds
// the rounding ties at both precisions, a carry into the next integer
// second, the 2^52 ns edge of the integer path, zero and negative values,
// every Bytes unit boundary including the exponent form, and the edges
// of Bytes' integer path: an exact tie (1088 B, 1.062KB), carries to a
// new leading digit (10MB, 100KB), its last value (1000GB) and the first
// strconv renders.
func FuzzEventFormat(f *testing.F) {
	f.Fuzz(func(t *testing.T, start, dur int64, kind int, cause string, before, after int64) {
		e := Event{
			Start:      simtime.Time(start),
			Duration:   simtime.Duration(dur),
			Kind:       Kind(kind),
			Cause:      cause,
			HeapBefore: machine.Bytes(before),
			HeapAfter:  machine.Bytes(after),
		}
		want := fmtFormat(e)
		if got := e.Format(); got != want {
			t.Fatalf("Format = %q, fmt gives %q", got, want)
		}
		if got := string(e.AppendFormat([]byte("x\n"))); got != "x\n"+want {
			t.Fatalf("AppendFormat = %q, fmt gives %q", got, "x\n"+want)
		}
		for _, b := range []machine.Bytes{e.HeapBefore, e.HeapAfter} {
			if got, want := b.String(), fmtBytes(b); got != want {
				t.Fatalf("Bytes(%d).String = %q, fmt gives %q", int64(b), got, want)
			}
		}
	})
}

// fmtFormat is the fmt rendering of a log line that Event.AppendFormat
// reproduces.
func fmtFormat(e Event) string {
	return fmt.Sprintf("%.3f: [%s (%s) %s->%s, %.4f secs]",
		e.Start.Seconds(), e.Kind, e.Cause, fmtBytes(e.HeapBefore), fmtBytes(e.HeapAfter),
		e.Duration.Seconds())
}

// fmtBytes is the fmt rendering of a byte quantity that
// machine.Bytes.Append reproduces.
func fmtBytes(b machine.Bytes) string {
	switch {
	case b >= machine.GB || b <= -machine.GB:
		return fmt.Sprintf("%.4gGB", float64(b)/float64(machine.GB))
	case b >= machine.MB || b <= -machine.MB:
		return fmt.Sprintf("%.4gMB", float64(b)/float64(machine.MB))
	case b >= machine.KB || b <= -machine.KB:
		return fmt.Sprintf("%.4gKB", float64(b)/float64(machine.KB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}
