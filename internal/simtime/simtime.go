// Package simtime provides the simulated-time primitives used throughout
// the jvmgc laboratory.
//
// Simulated time is a monotonically increasing quantity measured in
// nanoseconds since the start of a simulation. It is deliberately distinct
// from the standard library's time.Time so that simulation code cannot
// accidentally mix wall-clock readings into a deterministic run.
package simtime

import (
	"fmt"
	"math"
	"time"
)

// Duration is a span of simulated time in nanoseconds. It mirrors
// time.Duration (and converts losslessly to it) but is a distinct type so
// that simulated and wall-clock durations cannot be confused.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
)

// Time is an instant of simulated time, expressed as a Duration since the
// start of the simulation.
type Time int64

// MaxTime is the largest representable instant. It is used as a sentinel
// for "never".
const MaxTime Time = math.MaxInt64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the instant as a floating-point number of seconds since
// the simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Std converts the simulated duration to a time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// FromStd converts a time.Duration to a simulated Duration.
func FromStd(d time.Duration) Duration { return Duration(d) }

// Seconds constructs a Duration from a floating-point number of seconds.
// Negative and non-finite inputs are clamped to zero.
func Seconds(s float64) Duration {
	if math.IsNaN(s) || s <= 0 {
		return 0
	}
	if s >= float64(math.MaxInt64)/float64(Second) {
		return Duration(math.MaxInt64)
	}
	return Duration(s * float64(Second))
}

// String formats the duration in a human-friendly unit, choosing among
// ns, µs, ms, s, m and h based on magnitude.
func (d Duration) String() string {
	neg := d < 0
	v := d
	if neg {
		v = -v
	}
	var s string
	switch {
	case v < Microsecond:
		s = fmt.Sprintf("%dns", int64(v))
	case v < Millisecond:
		s = fmt.Sprintf("%.3gµs", float64(v)/float64(Microsecond))
	case v < Second:
		s = fmt.Sprintf("%.4gms", float64(v)/float64(Millisecond))
	case v < Minute:
		s = fmt.Sprintf("%.4gs", float64(v)/float64(Second))
	case v < Hour:
		s = fmt.Sprintf("%.4gm", float64(v)/float64(Minute))
	default:
		s = fmt.Sprintf("%.4gh", float64(v)/float64(Hour))
	}
	if neg {
		return "-" + s
	}
	return s
}
