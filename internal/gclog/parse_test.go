package gclog

import (
	"math"
	"strings"
	"testing"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

func TestParseRoundTrip(t *testing.T) {
	orig := sample()
	parsed, err := Parse(strings.NewReader(orig.String()))
	if err != nil {
		t.Fatal(err)
	}
	a, b := orig.Events(), parsed.Events()
	if len(a) != len(b) {
		t.Fatalf("event counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Formatting rounds to milliseconds (timestamps) and 0.1 ms
		// (durations); compare within those tolerances.
		if d := math.Abs(a[i].Start.Seconds() - b[i].Start.Seconds()); d > 0.001 {
			t.Errorf("event %d start %v vs %v", i, a[i].Start, b[i].Start)
		}
		if d := math.Abs(a[i].Duration.Seconds() - b[i].Duration.Seconds()); d > 0.0001 {
			t.Errorf("event %d duration %v vs %v", i, a[i].Duration, b[i].Duration)
		}
		if a[i].Kind != b[i].Kind || a[i].Cause != b[i].Cause {
			t.Errorf("event %d kind/cause %v/%q vs %v/%q",
				i, a[i].Kind, a[i].Cause, b[i].Kind, b[i].Cause)
		}
	}
	// Aggregates survive the round trip.
	if p1, f1 := orig.CountPauses(); true {
		p2, f2 := parsed.CountPauses()
		if p1 != p2 || f1 != f2 {
			t.Errorf("counts changed: %d/%d vs %d/%d", p1, f1, p2, f2)
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
1.000: [GC (young) (Allocation Failure) 4GB->1GB, 0.1000 secs]

# another
`
	log, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events()) != 1 {
		t.Errorf("events = %d", len(log.Events()))
	}
	e := log.Events()[0]
	if e.Kind != PauseMinor || e.Cause != "Allocation Failure" {
		t.Errorf("parsed %+v", e)
	}
	if e.HeapBefore != 4*machine.GB || e.HeapAfter != machine.GB {
		t.Errorf("occupancy %v -> %v", e.HeapBefore, e.HeapAfter)
	}
	if e.Duration != 100*simtime.Millisecond {
		t.Errorf("duration %v", e.Duration)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"not a log line",
		"x.yz: [GC (young) (c) 1GB->1GB, 0.1 secs]",
		"1.0: [Alien GC (c) 1GB->1GB, 0.1 secs]",
		"1.0: [GC (young) 1GB->1GB, 0.1 secs]",     // no cause
		"1.0: [GC (young) (c) 1GB->1GB]",           // no duration
		"1.0: [GC (young) (c) 1GB=>1GB, 0.1 secs]", // bad arrow
		"1.0: [GC (young) (c) 1XB->1GB, 0.1 secs]", // bad unit
		"1.0: [GC (young) (c) 1GB->1GB, abc secs]", // bad duration
		// Non-finite numbers in any field.
		"NaN: [GC (young) (c) 1GB->1GB, 0.1 secs]",
		"+Inf: [GC (young) (c) 1GB->1GB, 0.1 secs]",
		"1.0: [GC (young) (c) 1GB->1GB, NaN secs]",
		"1.0: [GC (young) (c) 1GB->1GB, Inf secs]",
		"1.0: [GC (young) (c) NaNGB->1GB, 0.1 secs]",
		"1.0: [GC (young) (c) 1GB->InfB, 0.1 secs]",
		"1.0: [GC (young) (c) -infMB->1GB, 0.1 secs]",
		// Byte quantities outside int64.
		"1.0: [GC (young) (c) 1e300GB->1GB, 0.1 secs]",
		"1.0: [GC (young) (c) 1GB->-1e300GB, 0.1 secs]",
		"1.0: [GC (young) (c) 8GB->9223372036854775808B, 0.1 secs]",
		"1.0: [GC (young) (c) 8589934592GB->1GB, 0.1 secs]",
	}
	for _, line := range bad {
		// The bad line comes second, after a valid one, and the error
		// names it.
		in := "0.000: [GC (young) (c) 1GB->1GB, 0.1 secs]\n" + line
		_, err := Parse(strings.NewReader(in))
		if err == nil {
			t.Errorf("accepted %q", line)
		} else if !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("%q: error %q does not name line 2", line, err)
		}
	}
}

func TestParseRejectsOutOfOrder(t *testing.T) {
	in := "2.0: [GC (young) (c) 1GB->1GB, 0.1000 secs]\n" +
		"1.0: [GC (young) (c) 1GB->1GB, 0.1000 secs]\n"
	if _, err := Parse(strings.NewReader(in)); err == nil {
		t.Error("out-of-order log accepted")
	}
}

func TestParseBytesUnits(t *testing.T) {
	cases := map[string]machine.Bytes{
		"512B":  512,
		"2KB":   2 * machine.KB,
		"1.5MB": machine.Bytes(1.5 * float64(machine.MB)),
		"64GB":  64 * machine.GB,
		// Rounded to the nearest byte, not truncated: 9.999 KB is
		// 10238.976 B.
		"9.999KB":  10239,
		"-9.999KB": -10239,
		"0.4B":     0,
		"0.5B":     1,
		// Negative quantities are in range down to the int64 minimum.
		"-8GB":                  -8 * machine.GB,
		"-9223372036854775808B": math.MinInt64,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %v, %v", in, got, err)
		}
	}
}
