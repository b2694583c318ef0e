package labd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strconv"
	"strings"
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

// FuzzDiskEntry holds the disk cache's entry check to the entry format:
// verify never panics, and an entry it accepts is exactly the bytes
// after the header line, of the header's length and SHA-256. Any payload
// write persists reads back byte for byte. The seed corpus under
// testdata/fuzz/FuzzDiskEntry holds a valid entry, a truncated payload, a
// flipped byte, a bad magic, a non-hex sum, a negative length, a header
// with no newline in its first 128 bytes, and empty input.
func FuzzDiskEntry(f *testing.F) {
	d, err := newDiskCache(f.TempDir(), nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if payload, err := d.verify(raw); err == nil {
			header, rest, _ := bytes.Cut(raw, []byte{'\n'})
			if !bytes.Equal(payload, rest) {
				t.Fatalf("accepted payload %q, want the bytes after the header line %q", payload, rest)
			}
			fields := strings.Fields(string(header))
			sum := sha256.Sum256(payload)
			ok := len(fields) == 3 && fields[0] == diskMagic &&
				strings.EqualFold(fields[1], hex.EncodeToString(sum[:]))
			if ok {
				n, err := strconv.Atoi(fields[2])
				ok = err == nil && n == len(payload)
			}
			if !ok {
				t.Fatalf("accepted %d-byte payload %q under header %q", len(payload), payload, header)
			}
		}
		if err := d.write("k", raw); err != nil {
			t.Fatal(err)
		}
		if got, ok := d.read("k"); !ok || !bytes.Equal(got, raw) {
			t.Fatalf("wrote %q, read back %q (ok %v)", raw, got, ok)
		}
	})
}
