package gclog

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// Parse reads a log rendered by Log.String / Event.Format back into a
// Log. It accepts exactly the lines this package emits:
//
//	12.345: [Full GC (System.gc()) 8GB->2GB, 1.2340 secs]
//
// Blank lines and lines starting with '#' are skipped. Any other
// malformed line aborts with an error naming the line number, because a
// silently dropped pause would corrupt downstream statistics.
func Parse(r io.Reader) (*Log, error) {
	log := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	var prev simtime.Time // the last appended event's start
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("gclog: line %d: %w", lineNo, err)
		}
		if log.Len() > 0 && e.Start < prev {
			return nil, fmt.Errorf("gclog: line %d: events out of order", lineNo)
		}
		log.Append(e)
		prev = e.Start
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

func parseLine(line string) (Event, error) {
	var e Event

	colon := strings.Index(line, ": [")
	if colon < 0 {
		return e, fmt.Errorf("missing timestamp bracket in %q", line)
	}
	secs, err := parseFinite(line[:colon])
	if err != nil {
		return e, fmt.Errorf("bad timestamp: %v", err)
	}
	e.Start = simtime.Time(simtime.Seconds(secs))

	body := line[colon+3:]
	if !strings.HasSuffix(body, " secs]") {
		return e, fmt.Errorf("missing duration suffix in %q", line)
	}
	body = strings.TrimSuffix(body, " secs]")

	// body: "<kind> (<cause>) <before>-><after>, <dur>". Kind names may
	// themselves contain parentheses ("GC (young)"), so match known
	// kinds as prefixes instead of splitting at the first parenthesis.
	kind, rest, err := splitKind(body)
	if err != nil {
		return e, fmt.Errorf("%v in %q", err, line)
	}
	e.Kind = kind
	if !strings.HasPrefix(rest, "(") {
		return e, fmt.Errorf("missing cause in %q", line)
	}
	close := strings.Index(rest, ") ")
	if close < 0 {
		return e, fmt.Errorf("missing cause in %q", line)
	}
	e.Cause = rest[1:close]

	rest = rest[close+2:]
	comma := strings.LastIndex(rest, ", ")
	if comma < 0 {
		return e, fmt.Errorf("missing duration in %q", line)
	}
	dur, err := parseFinite(rest[comma+2:])
	if err != nil {
		return e, fmt.Errorf("bad duration: %v", err)
	}
	e.Duration = simtime.Seconds(dur)

	occ := strings.Split(rest[:comma], "->")
	if len(occ) != 2 {
		return e, fmt.Errorf("bad occupancy transition in %q", line)
	}
	if e.HeapBefore, err = parseBytes(occ[0]); err != nil {
		return e, err
	}
	if e.HeapAfter, err = parseBytes(occ[1]); err != nil {
		return e, err
	}
	return e, nil
}

// splitKind matches the longest known kind name at the start of body and
// returns it with the remainder (after the separating space).
func splitKind(body string) (Kind, string, error) {
	best := Kind(-1)
	bestLen := -1
	for k := PauseMinor; k <= ConcurrentSweep; k++ {
		name := k.String()
		if strings.HasPrefix(body, name+" ") && len(name) > bestLen {
			best = k
			bestLen = len(name)
		}
	}
	if bestLen < 0 {
		return 0, "", fmt.Errorf("unknown event kind")
	}
	return best, body[bestLen+1:], nil
}

// parseFinite parses a decimal number, rejecting NaN and infinities.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite number %q", s)
	}
	return v, err
}

// parseBytes inverts machine.Bytes.String (e.g. "8GB", "1.5MB", "512B"),
// rounding to the nearest byte so that a rendered quantity re-renders
// unchanged. Quantities outside the int64 range are rejected.
func parseBytes(s string) (machine.Bytes, error) {
	s = strings.TrimSpace(s)
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "GB"):
		mult = float64(machine.GB)
		s = strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult = float64(machine.MB)
		s = strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult = float64(machine.KB)
		s = strings.TrimSuffix(s, "KB")
	case strings.HasSuffix(s, "B"):
		s = strings.TrimSuffix(s, "B")
	default:
		return 0, fmt.Errorf("missing unit in %q", s)
	}
	v, err := parseFinite(s)
	if err != nil {
		return 0, fmt.Errorf("bad byte quantity %q: %v", s, err)
	}
	// mult is a power of two, so the product is exact; 2^63 bounds int64.
	n := math.Round(v * mult)
	if n < -(1<<63) || n >= 1<<63 {
		return 0, fmt.Errorf("byte quantity %q out of range", s)
	}
	return machine.Bytes(n), nil
}
