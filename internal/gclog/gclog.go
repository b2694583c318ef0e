// Package gclog records the garbage-collection activity of a simulated
// JVM as a structured event log.
//
// The paper's measurements are all post-processing over HotSpot GC logs
// (pause starts, durations, causes, occupancy before/after) plus
// Cassandra's own pause reports. This package is the equivalent
// substrate: collectors append events, experiments query them, and a
// HotSpot-flavoured text rendering is available for humans.
package gclog

import (
	"fmt"
	"strconv"
	"strings"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// Kind classifies a GC event.
type Kind int

// Event kinds. Pause* kinds stop the world; Concurrent* kinds run
// alongside mutators.
const (
	PauseMinor Kind = iota
	PauseFull
	PauseInitialMark
	PauseRemark
	PauseMixed
	ConcurrentMark
	ConcurrentSweep
)

// String returns a log-friendly name for the kind.
func (k Kind) String() string {
	switch k {
	case PauseMinor:
		return "GC (young)"
	case PauseFull:
		return "Full GC"
	case PauseInitialMark:
		return "GC (initial-mark)"
	case PauseRemark:
		return "GC (remark)"
	case PauseMixed:
		return "GC (mixed)"
	case ConcurrentMark:
		return "concurrent-mark"
	case ConcurrentSweep:
		return "concurrent-sweep"
	default:
		return "unknown"
	}
}

// IsPause reports whether events of this kind stop the application.
func (k Kind) IsPause() bool { return k <= PauseMixed }

// Cause strings, mirroring HotSpot's GC cause vocabulary.
const (
	CauseAllocationFailure     = "Allocation Failure"
	CauseSystemGC              = "System.gc()"
	CausePromotionFailure      = "Promotion Failure"
	CauseConcurrentModeFailure = "Concurrent Mode Failure"
	CauseEvacuationFailure     = "Evacuation Failure"
	CauseOccupancyThreshold    = "Occupancy Threshold"
)

// Event is one GC activity record.
type Event struct {
	Start     simtime.Time
	Duration  simtime.Duration
	Kind      Kind
	Collector string
	Cause     string
	// HeapBefore/HeapAfter are total heap occupancy around the event.
	HeapBefore machine.Bytes
	HeapAfter  machine.Bytes
	// Promoted is the volume moved into the old generation (minor GCs).
	Promoted machine.Bytes
}

// End returns the instant the event finished.
func (e Event) End() simtime.Time { return e.Start.Add(e.Duration) }

// Format renders the event as a HotSpot-like log line:
//
//	12.345: [Full GC (System.gc()) 8GB->2GB, 1.2340 secs]
func (e Event) Format() string {
	var buf [maxLine]byte
	return string(e.AppendFormat(buf[:0]))
}

// maxLine bounds the stack buffer a line is rendered into; longer lines
// (long causes) still render, through one heap allocation.
const maxLine = 128

// AppendFormat appends the Format rendering of e to dst and returns the
// extended buffer. Its bytes equal those of
//
//	fmt.Sprintf("%.3f: [%s (%s) %v->%v, %.4f secs]", e.Start.Seconds(),
//		e.Kind, e.Cause, e.HeapBefore, e.HeapAfter, e.Duration.Seconds())
func (e Event) AppendFormat(dst []byte) []byte { return appendEvent(dst, &e) }

// appendEvent is AppendFormat for an event the caller holds in place, so
// that rendering a whole log copies no event.
func appendEvent(dst []byte, e *Event) []byte {
	dst = appendSeconds(dst, int64(e.Start), 3)
	dst = append(dst, ": ["...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, " ("...)
	dst = append(dst, e.Cause...)
	dst = append(dst, ") "...)
	dst = e.HeapBefore.Append(dst)
	dst = append(dst, "->"...)
	dst = e.HeapAfter.Append(dst)
	dst = append(dst, ", "...)
	dst = appendSeconds(dst, int64(e.Duration), 4)
	return append(dst, " secs]"...)
}

// appendSeconds appends ns nanoseconds as seconds with prec decimals,
// prec 3 or 4 (the two a log line uses): the bytes
// strconv.AppendFloat(dst, float64(ns)/1e9, 'f', prec, 64) gives,
// without its multiprecision path.
//
// For 0 <= ns < 2^52 the float quotient lies within half an ulp
// (< 0.47 ns) of the exact one, while an ns that is not an exact tie
// lies at least 1 ns from the rounding boundary, so rounding the
// integer gives the float's digits. Ties, negative values, larger ones
// and other precisions take the float path. Every divisor is a
// constant, which the compiler turns into a multiplication.
func appendSeconds(dst []byte, ns int64, prec int) []byte {
	var q, r, half int64
	switch prec {
	case 3:
		q, r, half = ns/1e6, ns%1e6, 5e5
	case 4:
		q, r, half = ns/1e5, ns%1e5, 5e4
	}
	if half == 0 || ns < 0 || ns >= 1<<52 || r == half {
		return strconv.AppendFloat(dst, float64(ns)/1e9, 'f', prec, 64)
	}
	if r > half {
		q++
	}
	// q counts units of the last decimal: write its prec fraction digits
	// right to left, then the whole seconds in front of them.
	u := uint64(q)
	var frac [4]byte
	for i := prec - 1; i >= 0; i-- {
		frac[i] = byte('0' + u%10)
		u /= 10
	}
	dst = strconv.AppendUint(dst, u, 10)
	dst = append(dst, '.')
	return append(dst, frac[:prec]...)
}

// Log accumulates GC events in time order. It stores them in chunks of
// doubling capacity (16, 32, 64, …) and never moves a chunk once
// written, so appending n events takes about log2(n/16) allocations and
// copies no event, where a slice grown by append copies each event
// several times. The chunk directory lives inside the Log, so a log
// allocates nothing beyond its chunks.
type Log struct {
	chunks [logChunks][]Event
	last   int // index of the chunk being filled
}

const (
	// firstChunk is the first chunk's capacity; chunk i holds
	// firstChunk<<i events.
	firstChunk = 16
	// logChunks sizes the directory, which every log carries. Most logs
	// are short (the paper's runs write a median of 9 events and at most
	// 714), so it is kept to 312 bytes: 13 chunks hold 131,056 events,
	// about six simulated days of the busiest collector and heap under
	// Simulate's default workload (about 900 events an hour). A longer
	// log grows its last chunk by append.
	logChunks = 13
)

// New returns an empty log.
func New() *Log { return &Log{} }

// Append adds an event. Events must be appended in non-decreasing start
// order; out-of-order appends panic because they indicate a simulator bug.
func (l *Log) Append(e Event) {
	c := l.chunks[l.last]
	if n := len(c); n > 0 && e.Start < c[n-1].Start {
		panic(fmt.Sprintf("gclog: out-of-order append: %v after %v", e.Start, c[n-1].Start))
	}
	if len(c) == cap(c) {
		if len(c) > 0 && l.last+1 < logChunks {
			l.last++
		}
		if c = l.chunks[l.last]; c == nil {
			c = make([]Event, 0, firstChunk<<l.last)
		}
	}
	l.chunks[l.last] = append(c, e)
}

// Len returns the number of events in the log.
func (l *Log) Len() int {
	return firstChunk<<l.last - firstChunk + len(l.chunks[l.last])
}

// Chunks returns the log's events as consecutive runs: every event of
// the first run, in order, then every event of the second, and so on.
// The runs are owned by the log; callers must not modify them.
func (l *Log) Chunks() [][]Event { return l.chunks[:l.last+1] }

// Events returns a copy of all events in order, or nil for an empty log.
// It allocates the whole log at once, so it serves tests and tools; the
// simulator's own paths range over Chunks.
func (l *Log) Events() []Event {
	if l.Len() == 0 {
		return nil
	}
	out := make([]Event, 0, l.Len())
	for _, c := range l.Chunks() {
		out = append(out, c...)
	}
	return out
}

// Pauses returns only the stop-the-world events.
func (l *Log) Pauses() []Event {
	var out []Event
	for _, c := range l.Chunks() {
		for i := range c {
			if c[i].Kind.IsPause() {
				out = append(out, c[i])
			}
		}
	}
	return out
}

// TotalPause returns the summed duration of all stop-the-world events.
func (l *Log) TotalPause() simtime.Duration {
	var sum simtime.Duration
	for _, c := range l.Chunks() {
		for i := range c {
			if e := &c[i]; e.Kind.IsPause() {
				sum += e.Duration
			}
		}
	}
	return sum
}

// MaxPause returns the longest stop-the-world event duration, or zero for
// an empty log.
func (l *Log) MaxPause() simtime.Duration {
	var max simtime.Duration
	for _, c := range l.Chunks() {
		for i := range c {
			if e := &c[i]; e.Kind.IsPause() && e.Duration > max {
				max = e.Duration
			}
		}
	}
	return max
}

// CountPauses returns the number of stop-the-world events, and how many of
// them were full collections.
func (l *Log) CountPauses() (pauses, full int) {
	for _, c := range l.Chunks() {
		for i := range c {
			if k := c[i].Kind; k.IsPause() {
				pauses++
				if k == PauseFull {
					full++
				}
			}
		}
	}
	return pauses, full
}

// AvgPause returns the mean stop-the-world duration, or zero for a log
// with no pauses.
func (l *Log) AvgPause() simtime.Duration {
	n, _ := l.CountPauses()
	if n == 0 {
		return 0
	}
	return l.TotalPause() / simtime.Duration(n)
}

// lineBytes sizes Log.String's output per event. It slightly
// over-estimates a rendered line with its newline (74 bytes on average
// over multi-hour simulations), so that the output is allocated once.
const lineBytes = 80

// String renders the whole log in HotSpot-like lines.
func (l *Log) String() string {
	var b strings.Builder
	b.Grow(l.Len() * lineBytes)
	var line [maxLine]byte
	for _, c := range l.Chunks() {
		for i := range c {
			b.Write(append(appendEvent(line[:0], &c[i]), '\n'))
		}
	}
	return b.String()
}
