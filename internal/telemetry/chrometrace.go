package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event JSON export (the "JSON Array Format" with a
// traceEvents wrapper object), loadable in Perfetto and chrome://tracing.
//
// Each track becomes one named thread row; spans become "X" (complete)
// events with microsecond timestamps, child phase spans nest inside
// their parent pause by interval containment; time-series samples become
// "C" (counter) events so Perfetto draws heap occupancy and CPU share as
// area charts under the spans.

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the recording as Chrome trace-event JSON.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, [2]string{"jvmgc simulator"}, r.Spans(), r.Samples())
}

// WriteChromeTrace renders spans, and samples as counter series, as
// Chrome trace-event JSON. Spans on the first span's clock render as
// process 1, named procs[0], and spans on the other clock as process 2,
// named procs[1]: simulated and wall time share no origin, so Perfetto
// shows the two timelines side by side. Samples render on process 1.
// Output is deterministic: tracks are numbered in first-appearance order
// and encoding/json emits map keys sorted.
func WriteChromeTrace(w io.Writer, procs [2]string, spans []Span, samples []Sample) error {
	f := traceFile{DisplayTimeUnit: "ms"}
	process := func(s Span) int {
		if s.Sim == spans[0].Sim {
			return 1
		}
		return 2
	}
	meta := func(name string, pid, tid int, value string) {
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: name, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": value},
		})
	}
	meta("process_name", 1, 0, procs[0])
	for _, s := range spans {
		if process(s) == 2 {
			meta("process_name", 2, 0, procs[1])
			break
		}
	}

	// One synthetic thread per track, in first-appearance order. tid 0 is
	// reserved for counter series.
	tids := map[string]int{}
	for _, s := range spans {
		if _, ok := tids[s.Track]; !ok {
			tids[s.Track] = len(tids) + 1
			meta("thread_name", process(s), tids[s.Track], s.Track)
		}
	}

	for _, s := range spans {
		ev := traceEvent{
			Name: s.Name, Ph: "X", Pid: process(s), Tid: tids[s.Track],
			Ts:  seconds(s.Start) * 1e6,
			Dur: seconds(s.Duration) * 1e6,
			Cat: s.Track,
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				if a.IsNum {
					ev.Args[a.Key] = a.Num
				} else {
					ev.Args[a.Key] = a.Str
				}
			}
		}
		f.TraceEvents = append(f.TraceEvents, ev)
	}

	for _, s := range samples {
		ts := s.At.Seconds() * 1e6
		f.TraceEvents = append(f.TraceEvents,
			traceEvent{
				Name: "heap occupancy", Ph: "C", Pid: 1, Ts: ts,
				Args: map[string]any{
					"eden":     float64(s.Eden),
					"survivor": float64(s.Survivor),
					"old":      float64(s.Old),
				},
			},
			traceEvent{
				Name: "cpu share", Ph: "C", Pid: 1, Ts: ts,
				Args: map[string]any{
					"mutator": s.MutatorUtil,
					"gc":      s.GCCPU,
				},
			},
			traceEvent{
				Name: "alloc rate", Ph: "C", Pid: 1, Ts: ts,
				Args: map[string]any{"bytes_per_sec": s.AllocRate},
			},
		)
	}

	enc := json.NewEncoder(w)
	if err := enc.Encode(f); err != nil {
		return fmt.Errorf("telemetry: chrome trace export: %w", err)
	}
	return nil
}
