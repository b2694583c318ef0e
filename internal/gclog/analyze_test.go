package gclog

import (
	"strings"
	"testing"

	"jvmgc/internal/simtime"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(New())
	if s.Pauses != 0 || s.Throughput != 1 {
		t.Errorf("empty summary %+v", s)
	}
	if out := s.Render(); !strings.Contains(out, "no stop-the-world") {
		t.Error("empty render wrong")
	}
}

func TestSummarizeBasics(t *testing.T) {
	l := New()
	// Ten 100ms pauses, one per second, plus a 2s full GC at the end.
	for i := 0; i < 10; i++ {
		l.Append(Event{Start: sec(i), Duration: 100 * simtime.Millisecond, Kind: PauseMinor})
	}
	l.Append(Event{Start: sec(10), Duration: 2 * simtime.Second, Kind: PauseFull})
	s := Summarize(l)
	if s.Pauses != 11 || s.FullGCs != 1 {
		t.Fatalf("counts %d/%d", s.Pauses, s.FullGCs)
	}
	if s.TotalPause != 3*simtime.Second {
		t.Errorf("total %v", s.TotalPause)
	}
	if s.MaxPause != 2*simtime.Second {
		t.Errorf("max %v", s.MaxPause)
	}
	if s.P50 != 100*simtime.Millisecond {
		t.Errorf("p50 %v", s.P50)
	}
	// Rank 0.99·10 = 9.9 interpolates nine tenths of the way from the
	// last 100ms pause to the 2s one.
	if s.P99 != 1810*simtime.Millisecond {
		t.Errorf("p99 %v, want 1.81s", s.P99)
	}
	// Span: first start 0s to last end 12s.
	if s.Span != 12*simtime.Second {
		t.Errorf("span %v", s.Span)
	}
	if s.PauseFraction < 0.24 || s.PauseFraction > 0.26 {
		t.Errorf("pause fraction %v, want 3/12", s.PauseFraction)
	}
	if s.Throughput+s.PauseFraction != 1 {
		t.Error("throughput complement broken")
	}
	out := s.Render()
	for _, want := range []string{"11 (1 full GCs)", "p50/p90/p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeIgnoresConcurrent(t *testing.T) {
	l := New()
	l.Append(Event{Start: sec(0), Duration: 100 * simtime.Millisecond, Kind: PauseMinor})
	l.Append(Event{Start: sec(1), Duration: time60(), Kind: ConcurrentMark})
	s := Summarize(l)
	if s.Pauses != 1 || s.TotalPause != 100*simtime.Millisecond {
		t.Errorf("concurrent phase counted: %+v", s)
	}
}

func time60() simtime.Duration { return 60 * simtime.Second }

func TestHistogram(t *testing.T) {
	l := New()
	l.Append(Event{Start: sec(0), Duration: 2 * simtime.Millisecond, Kind: PauseMinor})
	l.Append(Event{Start: sec(1), Duration: 2 * simtime.Millisecond, Kind: PauseMinor})
	l.Append(Event{Start: sec(2), Duration: 200 * simtime.Millisecond, Kind: PauseMinor})
	l.Append(Event{Start: sec(3), Duration: 2 * simtime.Minute, Kind: PauseFull})
	out := Histogram(l)
	for _, want := range []string{"1ms–3ms", "2 ##", "100ms–300ms", ">1m"} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
	// Empty bins are omitted.
	if strings.Contains(out, "10ms–30ms") {
		t.Error("empty bin rendered")
	}
	if Histogram(New()) != "no stop-the-world pauses\n" {
		t.Error("empty histogram wrong")
	}
}
