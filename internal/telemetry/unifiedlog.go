package telemetry

import (
	"fmt"
	"io"
	"sort"

	"jvmgc/internal/gclog"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// Unified-log export: a HotSpot -Xlog:gc*-flavoured text rendering of the
// recording. Every GC span on the "gc" and "concurrent" tracks that
// carries a cause attribute becomes one gclog-format event line, so
// internal/gclog.Parse accepts the file and internal/gclog/analyze can
// post-process it exactly like a log captured from the live simulator.
// Phase child spans and counters are rendered as '#' comments, which
// Parse skips.

// WriteUnifiedLog renders the recording as a parseable unified GC log.
func (r *Recorder) WriteUnifiedLog(w io.Writer) error {
	type entry struct {
		id   SpanID
		span Span
	}
	var events []entry
	children := map[SpanID][]Span{}
	for i, s := range r.Spans() {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
			continue
		}
		if s.Track != TrackGC && s.Track != TrackConcurrent {
			continue
		}
		if _, ok := s.Attr(AttrCause); !ok {
			continue
		}
		events = append(events, entry{id: SpanID(i + 1), span: s})
	}
	// Pause spans are emitted at pause start in time order, but
	// concurrent segments are emitted when their duration is known, so
	// interleave by start time before rendering (Parse rejects
	// out-of-order events).
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].span.Start < events[j].span.Start
	})

	if _, err := fmt.Fprintln(w, "# jvmgc unified GC log (telemetry export)"); err != nil {
		return err
	}
	for _, c := range r.Metrics().Counters() {
		if _, err := fmt.Fprintf(w, "# counter %s = %d\n", c.Name, c.Value); err != nil {
			return err
		}
	}

	for _, e := range events {
		ev, err := spanToEvent(e.span)
		if err != nil {
			return fmt.Errorf("telemetry: unified log export: %w", err)
		}
		if _, err := fmt.Fprintln(w, ev.Format()); err != nil {
			return err
		}
		for _, c := range children[e.id] {
			if _, err := fmt.Fprintf(w, "#   phase %s %.6f secs\n",
				c.Name, seconds(c.Duration)); err != nil {
				return err
			}
		}
	}
	return nil
}

// spanToEvent reconstructs the gclog event a GC span was recorded from.
// The span name is the gclog kind string; cause and heap occupancy live
// in attributes.
func spanToEvent(s Span) (gclog.Event, error) {
	kind, ok := kindByName(s.Name)
	if !ok {
		return gclog.Event{}, fmt.Errorf("span %q is not a GC event kind", s.Name)
	}
	ev := gclog.Event{
		Start:    simtime.Time(s.Start),
		Duration: simtime.FromStd(s.Duration),
		Kind:     kind,
	}
	if a, ok := s.Attr(AttrCause); ok {
		ev.Cause = a.Str
	}
	if a, ok := s.Attr(AttrCollector); ok {
		ev.Collector = a.Str
	}
	if a, ok := s.Attr(AttrHeapBefore); ok {
		ev.HeapBefore = machine.Bytes(a.Num)
	}
	if a, ok := s.Attr(AttrHeapAfter); ok {
		ev.HeapAfter = machine.Bytes(a.Num)
	}
	if a, ok := s.Attr(AttrPromoted); ok {
		ev.Promoted = machine.Bytes(a.Num)
	}
	return ev, nil
}

func kindByName(name string) (gclog.Kind, bool) {
	for k := gclog.PauseMinor; k <= gclog.ConcurrentSweep; k++ {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}
