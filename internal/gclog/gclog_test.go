package gclog

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

func sec(s int) simtime.Time { return simtime.Time(s) * simtime.Time(simtime.Second) }

func sample() *Log {
	l := New()
	l.Append(Event{Start: sec(1), Duration: 100 * simtime.Millisecond, Kind: PauseMinor,
		Collector: "ParallelOld", Cause: CauseAllocationFailure,
		HeapBefore: 4 * machine.GB, HeapAfter: machine.GB, Promoted: 100 * machine.MB})
	l.Append(Event{Start: sec(2), Duration: 3 * simtime.Second, Kind: ConcurrentMark,
		Collector: "CMS", Cause: CauseOccupancyThreshold})
	l.Append(Event{Start: sec(6), Duration: 2 * simtime.Second, Kind: PauseFull,
		Collector: "ParallelOld", Cause: CauseSystemGC,
		HeapBefore: 8 * machine.GB, HeapAfter: 2 * machine.GB})
	l.Append(Event{Start: sec(9), Duration: 50 * simtime.Millisecond, Kind: PauseRemark,
		Collector: "CMS", Cause: CauseOccupancyThreshold})
	return l
}

func TestKindClassification(t *testing.T) {
	pauses := []Kind{PauseMinor, PauseFull, PauseInitialMark, PauseRemark, PauseMixed}
	for _, k := range pauses {
		if !k.IsPause() {
			t.Errorf("%v should be a pause", k)
		}
	}
	for _, k := range []Kind{ConcurrentMark, ConcurrentSweep} {
		if k.IsPause() {
			t.Errorf("%v should not be a pause", k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if PauseFull.String() != "Full GC" || ConcurrentSweep.String() != "concurrent-sweep" {
		t.Error("kind names wrong")
	}
	if Kind(42).String() != "unknown" {
		t.Error("unknown kind name wrong")
	}
}

func TestAppendOrderEnforced(t *testing.T) {
	l := New()
	l.Append(Event{Start: sec(5)})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on out-of-order append")
		}
	}()
	l.Append(Event{Start: sec(4)})
}

func TestPausesFiltersConcurrent(t *testing.T) {
	l := sample()
	p := l.Pauses()
	if len(p) != 3 {
		t.Fatalf("pauses = %d, want 3", len(p))
	}
	for _, e := range p {
		if !e.Kind.IsPause() {
			t.Errorf("non-pause %v in Pauses()", e.Kind)
		}
	}
}

func TestAggregates(t *testing.T) {
	l := sample()
	wantTotal := 100*simtime.Millisecond + 2*simtime.Second + 50*simtime.Millisecond
	if got := l.TotalPause(); got != wantTotal {
		t.Errorf("TotalPause = %v, want %v", got, wantTotal)
	}
	if got := l.MaxPause(); got != 2*simtime.Second {
		t.Errorf("MaxPause = %v", got)
	}
	pauses, full := l.CountPauses()
	if pauses != 3 || full != 1 {
		t.Errorf("CountPauses = %d, %d", pauses, full)
	}
	if got := l.AvgPause(); got != wantTotal/3 {
		t.Errorf("AvgPause = %v", got)
	}
}

func TestEmptyLogAggregates(t *testing.T) {
	l := New()
	if l.TotalPause() != 0 || l.MaxPause() != 0 || l.AvgPause() != 0 {
		t.Error("empty log aggregates nonzero")
	}
	if p, f := l.CountPauses(); p != 0 || f != 0 {
		t.Error("empty log counts nonzero")
	}
}

func TestEventEndAndFormat(t *testing.T) {
	e := Event{Start: sec(6), Duration: 2 * simtime.Second, Kind: PauseFull,
		Cause: CauseSystemGC, HeapBefore: 8 * machine.GB, HeapAfter: 2 * machine.GB}
	if e.End() != sec(8) {
		t.Errorf("End = %v", e.End())
	}
	line := string(appendEvent(nil, &e))
	for _, want := range []string{"6.000", "Full GC", "System.gc()", "8GB", "2GB", "2.0000 secs"} {
		if !strings.Contains(line, want) {
			t.Errorf("appendEvent = %q missing %q", line, want)
		}
	}
}

func TestStringRendersAllEvents(t *testing.T) {
	l := sample()
	s := l.String()
	if got := strings.Count(s, "\n"); got != 4 {
		t.Errorf("rendered %d lines, want 4", got)
	}
}

// TestAppendSecondsMatchesFloat sweeps the integer path of appendSeconds
// against the float rendering it replaces: a seeded spread of magnitudes
// up to 2^52 ns, and the exact ties of each precision with their
// neighbours 1 ns either side, where a misrounding would first show.
// Precisions other than 3 and 4 take the float path and are checked too.
func TestAppendSecondsMatchesFloat(t *testing.T) {
	units := map[int]int64{2: 1e7, 3: 1e6, 4: 1e5, 5: 1e4}
	rng := rand.New(rand.NewPCG(13, 0))
	var got, want []byte
	check := func(ns int64, prec int) {
		got = appendSeconds(got[:0], ns, prec)
		want = strconv.AppendFloat(want[:0], float64(ns)/1e9, 'f', prec, 64)
		if string(got) != string(want) {
			t.Fatalf("appendSeconds(%d, %d) = %s, want %s", ns, prec, got, want)
		}
	}
	for i := 0; i < 50000; i++ {
		ns := rng.Int64N(1 << (1 + rng.IntN(52)))
		for prec, unit := range units {
			tie := ns/unit*unit + unit/2
			for _, v := range []int64{ns, tie - 1, tie, tie + 1} {
				if v >= 0 && v < 1<<52 {
					check(v, prec)
				}
			}
		}
	}
}
