package main

import (
	"fmt"
	"strings"
	"testing"
)

const sampleLog = `# a comment line
0.500: [GC (young) (Allocation Failure) 4GB->1GB, 0.0500 secs]
2.000: [Full GC (Ergonomics) 10GB->3GB, 12.0000 secs]
`

func TestRunFromStdin(t *testing.T) {
	var out, errw strings.Builder
	code := run(nil, strings.NewReader(sampleLog), &out, &errw)
	if code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{"pauses:", "1 full GCs", "pause duration histogram:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The 12 s full pause trips the default 8 s failure-detector timeout.
	if !strings.Contains(got, "suspect") && !strings.Contains(got, "timeout") {
		t.Errorf("expected cluster-impact analysis in output:\n%s", got)
	}
}

func TestRunPlot(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-plot"}, strings.NewReader(sampleLog), &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	if !strings.Contains(out.String(), "pause timeline") {
		t.Errorf("expected timeline plot in output:\n%s", out.String())
	}
}

func TestRunRejectsMalformedLog(t *testing.T) {
	var out, errw strings.Builder
	code := run(nil, strings.NewReader("not a gc log\n"), &out, &errw)
	if code == 0 {
		t.Fatal("run accepted a malformed log")
	}
	if out.Len() != 0 {
		t.Errorf("partial results printed despite parse error:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "gcanalyze:") {
		t.Errorf("expected error on stderr, got %q", errw.String())
	}
}

func TestRunMissingFile(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"/nonexistent/path.gclog"}, strings.NewReader(""), &out, &errw); code == 0 {
		t.Fatal("run accepted a missing file")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, strings.NewReader(""), &out, &errw); code != 2 {
		t.Fatalf("run = %d, want 2 for bad flag", code)
	}
}

// TestRunPercentileLine pins the pause percentiles printed for a fixed
// log: ten 100 ms young pauses and a 2 s full GC. They follow
// stats.Percentiles' interpolating rule, so p99 (rank 0.99·10 = 9.9)
// lands nine tenths of the way from 100ms to 2s.
func TestRunPercentileLine(t *testing.T) {
	var log strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&log, "%d.000: [GC (young) (Allocation Failure) 4GB->1GB, 0.1000 secs]\n", i)
	}
	log.WriteString("10.000: [Full GC (Ergonomics) 10GB->3GB, 2.0000 secs]\n")
	var out, errw strings.Builder
	if code := run(nil, strings.NewReader(log.String()), &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr %q", code, errw.String())
	}
	const want = "\np50/p90/p99:   100ms / 100ms / 1.81s\n"
	if !strings.Contains(out.String(), want) {
		t.Errorf("output lacks %q:\n%s", want[1:], out.String())
	}
}
