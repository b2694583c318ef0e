package obs

import (
	"strconv"
	"strings"
)

// A minimal Prometheus text-format reader — just enough for cmd/gctop to
// scrape a labd /metrics page and for tests to assert on exposition
// bodies without regexp soup. It parses sample lines (name, label set,
// value), skips comments, and tolerates OpenMetrics exemplar suffixes.

// MetricPoint is one parsed sample line.
type MetricPoint struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParsePromText parses every well-formed sample line of a text-format
// exposition body. Malformed lines are skipped, not fatal: a scraper
// must survive a page it half-understands.
func ParsePromText(body string) []MetricPoint {
	var out []MetricPoint
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		p, ok := parseSample(line)
		if ok {
			out = append(out, p)
		}
	}
	return out
}

// parseSample parses `name{labels} value`, ignoring whatever follows the
// value (a timestamp, or an OpenMetrics exemplar " # {...} v ts"). The
// exemplar can only begin after the label set closes: a quoted label
// value may itself hold " # ", braces or spaces.
func parseSample(line string) (MetricPoint, bool) {
	var p MetricPoint
	end := strings.IndexAny(line, "{ \t")
	if end <= 0 {
		return p, false
	}
	p.Name, line = line[:end], line[end:]
	if line[0] == '{' {
		labels, n, ok := parseLabels(line[1:])
		if !ok {
			return p, false
		}
		p.Labels, line = labels, line[1+n:]
	}
	fields := strings.Fields(line)
	if len(fields) < 1 {
		return p, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return p, false
	}
	p.Value = v
	return p, true
}

// parseLabels parses `k="v",k2="v2"}` honoring the text-format escapes
// (\\, \", \n) inside values, and returns the labels and the length up
// to and including the closing brace.
func parseLabels(s string) (map[string]string, int, bool) {
	labels := map[string]string{}
	i := 0
	for {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, i + 1, true
		}
		eq := strings.IndexAny(s[i:], "=}")
		if eq < 0 || s[i+eq] != '=' || i+eq+1 >= len(s) || s[i+eq+1] != '"' {
			return nil, 0, false
		}
		name := strings.TrimSpace(s[i : i+eq])
		var b strings.Builder
		i += eq + 2
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			b.WriteByte(c)
			i++
		}
		if !closed {
			return nil, 0, false
		}
		labels[name] = b.String()
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// Metric returns the value of the first point matching name and every
// given label pair ("k", "v", "k2", "v2", ...).
func Metric(points []MetricPoint, name string, labelPairs ...string) (float64, bool) {
	for _, p := range points {
		if p.Name != name {
			continue
		}
		match := true
		for i := 0; i+1 < len(labelPairs); i += 2 {
			if p.Labels[labelPairs[i]] != labelPairs[i+1] {
				match = false
				break
			}
		}
		if match {
			return p.Value, true
		}
	}
	return 0, false
}
