// Package traceload drives a simulated JVM from a recorded allocation
// trace instead of a closed-form workload: the path for replaying a
// production service's measured allocation profile (e.g. sampled from
// jstat or JFR) through the collectors to preview their pause behaviour.
//
// The trace format is CSV with two columns and an optional header:
//
//	seconds,alloc_bytes_per_sec
//	0,200000000
//	60,950000000
//	120,180000000
//
// Each row sets the allocation rate from its timestamp until the next
// row; the final row's rate holds for TailSeconds (default 60 s).
package traceload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"jvmgc/internal/jvm"
	"jvmgc/internal/simtime"
)

// Point is one step of the allocation-rate staircase.
type Point struct {
	// At is the instant the rate takes effect, from trace start.
	At simtime.Duration
	// AllocRate is the allocation rate in bytes per second.
	AllocRate float64
}

// Trace is a recorded allocation profile.
type Trace struct {
	Points []Point
	// TailSeconds extends the final rate past its timestamp (default 60).
	TailSeconds float64
}

// ParseCSV reads a trace. A first row whose fields are not numeric is
// treated as a header. Rows must be in increasing time order.
func ParseCSV(r io.Reader) (Trace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	var tr Trace
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Trace{}, fmt.Errorf("traceload: %w", err)
		}
		line++
		if len(rec) < 2 {
			return Trace{}, fmt.Errorf("traceload: line %d: need seconds,rate", line)
		}
		secs, err1 := strconv.ParseFloat(strings.TrimSpace(rec[0]), 64)
		rate, err2 := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if err1 != nil || err2 != nil {
			if line == 1 {
				continue // header
			}
			return Trace{}, fmt.Errorf("traceload: line %d: non-numeric fields", line)
		}
		tr.Points = append(tr.Points, Point{At: simtime.Seconds(secs), AllocRate: rate})
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// Validate reports whether the trace is well-formed: non-empty, ordered,
// non-negative rates.
func (tr Trace) Validate() error {
	if len(tr.Points) == 0 {
		return fmt.Errorf("traceload: empty trace")
	}
	prev := simtime.Duration(-1)
	for i, p := range tr.Points {
		if p.At <= prev {
			return fmt.Errorf("traceload: point %d at %v not after %v", i, p.At, prev)
		}
		if p.AllocRate < 0 {
			return fmt.Errorf("traceload: point %d has negative rate", i)
		}
		prev = p.At
	}
	return nil
}

// Duration returns the trace's total span including the tail.
func (tr Trace) Duration() simtime.Duration {
	if len(tr.Points) == 0 {
		return 0
	}
	tail := tr.TailSeconds
	if tail <= 0 {
		tail = 60
	}
	return tr.Points[len(tr.Points)-1].At + simtime.Seconds(tail)
}

// Replay drives the JVM through the trace: each point sets the
// allocation rate at its instant, and the run extends TailSeconds past
// the last point. The JVM must be freshly constructed (its clock at the
// trace's start).
func Replay(j *jvm.JVM, tr Trace) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	start := j.Now()
	for _, p := range tr.Points {
		target := start.Add(p.At)
		if wait := target.Sub(j.Now()); wait > 0 {
			j.RunFor(wait)
		}
		j.SetAllocRate(p.AllocRate)
	}
	end := start.Add(tr.Duration())
	if wait := end.Sub(j.Now()); wait > 0 {
		j.RunFor(wait)
	}
	return nil
}
