package gclog

import (
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// flatLog is the differential oracle for Log: the flat-slice log that
// chunked storage replaced, reduced to the queries the tests compare.
type flatLog []Event

func (f flatLog) pauses(t0, t1 simtime.Time) []Event {
	var out []Event
	for _, e := range f {
		if e.Kind.IsPause() && e.Start >= t0 && e.Start < t1 {
			out = append(out, e)
		}
	}
	return out
}

func (f flatLog) countPauses() (pauses, full int) {
	for _, e := range f {
		if e.Kind.IsPause() {
			pauses++
			if e.Kind == PauseFull {
				full++
			}
		}
	}
	return pauses, full
}

func (f flatLog) String() string {
	var b strings.Builder
	for i := range f {
		b.Write(appendEvent(nil, &f[i]))
		b.WriteByte('\n')
	}
	return b.String()
}

// randomEvents draws n events in non-decreasing start order: every kind,
// repeated starts, and pauses that overlap the next event's start.
func randomEvents(rng *rand.Rand, n int) []Event {
	var out []Event
	var at simtime.Time
	for i := 0; i < n; i++ {
		if rng.IntN(4) > 0 {
			at += simtime.Time(rng.Int64N(int64(2 * simtime.Second)))
		}
		out = append(out, Event{
			Start:      at,
			Duration:   simtime.Duration(rng.Int64N(int64(simtime.Second))),
			Kind:       Kind(rng.IntN(int(ConcurrentSweep) + 1)),
			Collector:  "G1",
			Cause:      CauseAllocationFailure,
			HeapBefore: machine.Bytes(rng.Int64N(int64(16 * machine.GB))),
			HeapAfter:  machine.Bytes(rng.Int64N(int64(4 * machine.GB))),
			Promoted:   machine.Bytes(rng.Int64N(int64(machine.GB))),
		})
	}
	return out
}

// TestChunkedLogMatchesFlat holds every query of the chunked log equal to
// the flat-slice oracle at lengths on both sides of the first chunk
// boundaries (16 and 48 events) and across many chunks, and checks that
// a written chunk never moves.
func TestChunkedLogMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	for _, n := range []int{0, 15, 16, 17, 48, 49, 10000} {
		evs := randomEvents(rng, n)
		l := New()
		var first *Event
		for i, e := range evs {
			l.Append(e)
			if i == 0 {
				first = &l.Chunks()[0][0]
			}
		}
		flat := flatLog(evs)
		if got := l.Len(); got != n {
			t.Fatalf("n=%d: Len = %d", n, got)
		}
		if n > 0 {
			for i, c := range l.Chunks() {
				if i < len(l.Chunks())-1 && len(c) != cap(c) || cap(c) != firstChunk<<i {
					t.Fatalf("n=%d: chunk %d holds %d of %d events", n, i, len(c), cap(c))
				}
			}
			if first != &l.Chunks()[0][0] {
				t.Fatalf("n=%d: the first chunk moved", n)
			}
		}
		if got, want := l.Events(), []Event(flat); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Events differs from the appended events", n)
		}
		end := simtime.Time(1 << 62)
		if got, want := l.Pauses(), flat.pauses(0, end); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: Pauses differs from the flat log's", n)
		}
		gotN, gotFull := l.CountPauses()
		wantN, wantFull := flat.countPauses()
		if gotN != wantN || gotFull != wantFull {
			t.Fatalf("n=%d: CountPauses = %d, %d; flat log %d, %d", n, gotN, gotFull, wantN, wantFull)
		}
		var total, max simtime.Duration
		for _, e := range flat.pauses(0, end) {
			total += e.Duration
			if e.Duration > max {
				max = e.Duration
			}
		}
		if l.TotalPause() != total || l.MaxPause() != max {
			t.Fatalf("n=%d: TotalPause, MaxPause = %v, %v; flat log %v, %v",
				n, l.TotalPause(), l.MaxPause(), total, max)
		}
		if got, want := l.String(), flat.String(); got != want {
			t.Fatalf("n=%d: String differs from the flat log's rendering", n)
		}
	}
}

// TestAppendOrderEnforcedAcrossChunks appends out of order right after a
// chunk fills, where the previous event sits in the full chunk and the
// new one would open the next.
func TestAppendOrderEnforcedAcrossChunks(t *testing.T) {
	for _, n := range []int{firstChunk, 3 * firstChunk} {
		l := New()
		for i := 0; i < n; i++ {
			l.Append(Event{Start: sec(10 + i)})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("after %d events: out-of-order append did not panic", n)
				}
			}()
			l.Append(Event{Start: sec(8 + n)}) // one second before the last
		}()
		if l.Len() != n {
			t.Errorf("after %d events: the rejected event was stored (Len %d)", n, l.Len())
		}
	}
}

// TestFullDirectoryGrowsLastChunk sets up a log whose directory is full
// and whose last chunk is full: the next event extends that chunk.
func TestFullDirectoryGrowsLastChunk(t *testing.T) {
	var l Log
	l.last = logChunks - 1
	l.chunks[l.last] = make([]Event, 1)
	l.Append(Event{Start: sec(1)})
	if c := l.chunks[l.last]; len(c) != 2 || c[1].Start != sec(1) {
		t.Fatalf("last chunk holds %d events", len(c))
	}
}
