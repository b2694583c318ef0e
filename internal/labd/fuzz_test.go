package labd

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzAppendSpecJSON holds the fast spec encoder to encoding/json: for
// any spec, appendSpecJSON either reproduces json.Marshal byte for byte
// (also when appending to a non-empty buffer) or declines, and
// SpecKeyInto — the key a fleet router places and looks up replicas by —
// always equals SpecKey, error for error. The seed corpus under
// testdata/fuzz/FuzzAppendSpecJSON holds specMatrix's edge cases: every
// field set once, floats on both sides of the exponent-form boundaries,
// negative and extreme integers, and the strings and non-finite floats
// that must send the encoder to the fallback.
func FuzzAppendSpecJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, collector, benchmark, workload string,
		heap, young int64, threads, iterations, nodes, replication int,
		alloc, duration, maxPause, maxPaused float64,
		noSystemGC, systemGC, disableTLAB, stress bool, seed uint64) {
		spec := JobSpec{
			Kind: kind, Collector: collector, Benchmark: benchmark, Workload: workload,
			HeapBytes: heap, YoungBytes: young, Threads: threads, Iterations: iterations,
			Nodes: nodes, ReplicationFactor: replication,
			AllocBytesPerSec: alloc, DurationSeconds: duration,
			MaxPauseMS: maxPause, MaxPausedPct: maxPaused,
			NoSystemGC: noSystemGC, SystemGC: systemGC, DisableTLAB: disableTLAB, Stress: stress,
			Seed: seed,
		}
		want, merr := json.Marshal(spec)
		got, ok := appendSpecJSON([]byte("x"), spec)
		switch {
		case ok && merr != nil:
			t.Fatalf("encoded %s where json.Marshal fails: %v", got, merr)
		case ok && !bytes.Equal(got, append([]byte("x"), want...)):
			t.Fatalf("fast encoding diverges\n got %s\nwant x%s", got, want)
		}

		wantKey, werr := SpecKey(spec)
		var out [64]byte
		gerr := SpecKeyInto(spec, &out)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("SpecKey error %v, SpecKeyInto error %v", werr, gerr)
		}
		if werr == nil && string(out[:]) != wantKey {
			t.Fatalf("SpecKeyInto %s != SpecKey %s", out[:], wantKey)
		}
	})
}

// FuzzAppendBatchEvent holds the batch NDJSON framing to json.Encoder
// with SetEscapeHTML(false), the encoder it stands in for: whenever
// appendBatchEvent accepts an event, its line equals the encoder's byte
// for byte, and it never accepts an event the encoder rejects (an
// embedded result that is not JSON). The one framing serves every
// batch stream: StreamBatch writes the daemon's and a fleet node's
// alike. The seed corpus under testdata/fuzz/FuzzAppendBatchEvent holds
// HTML characters, non-ASCII text, a negative index, whitespace-padded
// results and invalid ones.
func FuzzAppendBatchEvent(f *testing.F) {
	f.Fuzz(func(t *testing.T, index int, id, key, status, cache, errMsg string, result []byte) {
		ev := BatchEvent{Index: index, ID: id, Key: key, Status: status, Cache: cache,
			Error: errMsg, Result: json.RawMessage(result)}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		eerr := enc.Encode(ev)
		var got bytes.Buffer
		ok := appendBatchEvent(&got, ev)
		switch {
		case ok && eerr != nil:
			t.Fatalf("framed %q where json.Encoder fails: %v", got.Bytes(), eerr)
		case ok && !bytes.Equal(got.Bytes(), want.Bytes()):
			t.Fatalf("framing diverges\n got %q\nwant %q", got.Bytes(), want.Bytes())
		}
	})
}
