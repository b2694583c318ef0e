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
	CauseErgonomics            = "Ergonomics"
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
func (e Event) AppendFormat(dst []byte) []byte {
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

// pow10 holds 10^i for every i in 0..9.
var pow10 = [10]int64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// appendSeconds appends ns nanoseconds as seconds with prec decimals
// (1 <= prec <= 9), the bytes strconv.AppendFloat(dst, float64(ns)/1e9,
// 'f', prec, 64) gives, without its multiprecision path.
//
// For 0 <= ns < 2^52 the float quotient lies within half an ulp
// (< 0.47 ns) of the exact one, while an ns that is not an exact tie
// lies at least 1 ns from the rounding boundary, so rounding the
// integer gives the float's digits. Ties, negative values and larger
// ones take the float path.
func appendSeconds(dst []byte, ns int64, prec int) []byte {
	unit := pow10[9-prec]
	q, r := ns/unit, ns%unit
	if ns < 0 || ns >= 1<<52 || 2*r == unit {
		return strconv.AppendFloat(dst, float64(ns)/1e9, 'f', prec, 64)
	}
	if 2*r > unit {
		q++
	}
	scale := pow10[prec]
	dst = strconv.AppendInt(dst, q/scale, 10)
	dst = append(dst, '.')
	frac := q % scale
	for d := scale / 10; d > 0; d /= 10 {
		dst = append(dst, byte('0'+frac/d%10))
	}
	return dst
}

// Log accumulates GC events in time order.
type Log struct {
	events []Event
}

// New returns an empty log.
func New() *Log { return &Log{} }

// Append adds an event. Events must be appended in non-decreasing start
// order; out-of-order appends panic because they indicate a simulator bug.
func (l *Log) Append(e Event) {
	if l.events == nil {
		// Skip the smallest append growth steps; long logs double from here
		// in a handful of regrows.
		l.events = make([]Event, 0, 16)
	}
	if n := len(l.events); n > 0 && e.Start < l.events[n-1].Start {
		panic(fmt.Sprintf("gclog: out-of-order append: %v after %v",
			e.Start, l.events[n-1].Start))
	}
	l.events = append(l.events, e)
}

// Events returns all events in order. The returned slice is owned by the
// log; callers must not modify it.
func (l *Log) Events() []Event { return l.events }

// Pauses returns only the stop-the-world events.
func (l *Log) Pauses() []Event {
	var out []Event
	for _, e := range l.events {
		if e.Kind.IsPause() {
			out = append(out, e)
		}
	}
	return out
}

// PausesBetween returns stop-the-world events with Start in [t0, t1).
func (l *Log) PausesBetween(t0, t1 simtime.Time) []Event {
	var out []Event
	for _, e := range l.events {
		if e.Kind.IsPause() && e.Start >= t0 && e.Start < t1 {
			out = append(out, e)
		}
	}
	return out
}

// TotalPause returns the summed duration of all stop-the-world events.
func (l *Log) TotalPause() simtime.Duration {
	var sum simtime.Duration
	for _, e := range l.events {
		if e.Kind.IsPause() {
			sum += e.Duration
		}
	}
	return sum
}

// MaxPause returns the longest stop-the-world event duration, or zero for
// an empty log.
func (l *Log) MaxPause() simtime.Duration {
	var max simtime.Duration
	for _, e := range l.events {
		if e.Kind.IsPause() && e.Duration > max {
			max = e.Duration
		}
	}
	return max
}

// CountPauses returns the number of stop-the-world events, and how many of
// them were full collections.
func (l *Log) CountPauses() (pauses, full int) {
	for _, e := range l.events {
		if !e.Kind.IsPause() {
			continue
		}
		pauses++
		if e.Kind == PauseFull {
			full++
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

// PauseAt reports whether a stop-the-world event covers instant t, and if
// so returns it.
func (l *Log) PauseAt(t simtime.Time) (Event, bool) {
	for _, e := range l.events {
		if !e.Kind.IsPause() {
			continue
		}
		if t >= e.Start && t < e.End() {
			return e, true
		}
		if e.Start > t {
			break
		}
	}
	return Event{}, false
}

// lineBytes sizes Log.String's output per event. It slightly
// over-estimates a rendered line with its newline (74 bytes on average
// over multi-hour simulations), so that the output is allocated once.
const lineBytes = 80

// String renders the whole log in HotSpot-like lines.
func (l *Log) String() string {
	var b strings.Builder
	b.Grow(len(l.events) * lineBytes)
	var line [maxLine]byte
	for _, e := range l.events {
		b.Write(append(e.AppendFormat(line[:0]), '\n'))
	}
	return b.String()
}
