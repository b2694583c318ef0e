package hdrhist

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, which the fleet aggregator
// runs on histograms read from peers. Decode must not panic, must not
// build a histogram past the bucket cap whatever range the header
// names, and must re-encode any input it accepts to the same bytes.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := Decode(data)
		if err != nil {
			return
		}
		if n := h.NumBuckets(); n > maxBuckets {
			t.Fatalf("decoded histogram spans %d buckets, more than %d", n, maxBuckets)
		}
		back, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("re-encoding changed the bytes:\n in %x\nout %x", data, back)
		}
	})
}
