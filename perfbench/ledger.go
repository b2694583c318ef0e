package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call the benchmark made into a layer. Spans of one
// service request share Req; Parent names the span that caused this one
// (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// ledger keeps the spans of a traced run in memory until the run writes
// them out. It is safe for concurrent use; a nil ledger records nothing,
// so one code path serves traced and untraced calls.
type ledger struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newLedger() *ledger { return &ledger{base: time.Now()} }

// begin opens a span. Its ID is known at once so that a request can carry
// it to another node.
func (l *ledger) begin(name string, parent, req int64) span {
	if l == nil {
		return span{}
	}
	return span{ID: l.ids.Add(1), Parent: parent, Req: req, Name: name, Start: int64(time.Since(l.base))}
}

// end closes s, files it and returns it.
func (l *ledger) end(s span) span {
	if l == nil {
		return s
	}
	s.End = int64(time.Since(l.base))
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
	return s
}

// snapshot returns a copy of the spans filed so far.
func (l *ledger) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval that the union of its children covers. Children
// may overlap one another and may outlast their parent; each instant of
// the parent is subtracted at most once.
func selfTimes(spans []span) map[int64]int64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi) that the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if a, b := max(s.Start, lo), min(s.End, hi); a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		total += v.b - max(v.a, end)
		end = v.b
	}
	return total
}

// Handler span names in the svc-mix ledger.
const (
	spanEntry = "http.entry" // the node the client sent the request to
	spanOwner = "http.owner" // the node the entry node forwarded it to
)

// linkHops re-parents each owner-node handler span under the entry-node
// handler span of the same request. The fleet forwards the client's
// traceparent unchanged, so both handler spans name the client's span as
// their parent; the owner's work happens inside the entry node's handler.
func linkHops(spans []span) {
	entry := map[int64]int64{}
	for _, s := range spans {
		if s.Name == spanEntry {
			entry[s.Req] = s.ID
		}
	}
	for i, s := range spans {
		if id, ok := entry[s.Req]; ok && s.Name == spanOwner {
			spans[i].Parent = id
		}
	}
}

// unattributed is the share of the root spans' time that no child span
// covers: time the traced run spent outside every layer it measured.
func unattributed(spans []span, self map[int64]int64) float64 {
	var total, uncovered int64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.dur()
			uncovered += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}

// selfByName sums self time in seconds per span name.
func selfByName(spans []span, self map[int64]int64) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// spanDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spanDir = ".bench_build/spans"

// writeSpans writes a traced run's spans as a JSON array and names the
// file on standard error.
func writeSpans(workload string, seed uint64, spans []span) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
