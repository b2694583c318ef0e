package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"jvmgc/internal/machine"
)

// clientStudyPins holds, per main collector at seed 42, the SHA-256 over
// every operation of the exact-mode client trace and the SHA-256 of the
// %#v of its READ and UPDATE band reports. The digest test covers only
// what the report renders (three decimals of each band); these pin every
// bit of every operation and every band field, so a rewrite of the
// generator or the band analysis must reproduce them exactly.
var clientStudyPins = map[string]struct{ ops, bands string }{
	"ParallelOld": {
		ops:   "f4d0b6b5eefbfe17c69ccbfd9c7100e57e96ebc9a7bfcbe3fa8f8f0671879c06",
		bands: "e909de052aab2316c24b9e0a2a3ce1109cc3502c25703190a9c9c14f4cbcaa21",
	},
	"CMS": {
		ops:   "2747367d3fc6c6b2623d692993addf7ae7033b0a6e6701af458ae261ffa418f6",
		bands: "ce3cf39b82ce02ce96f7001a1bccb19e38be10246d19a4c2e2af1d0b1db98b6f",
	},
	"G1": {
		ops:   "ae9d981bb66c87c61fb5ed96a42b6fc47920e379001c2e34609d7303ee4bfa53",
		bands: "cb855087fe07d99be7bf0ad19948b19d1ba2e65b0d46f1389aa433b375e7748b",
	},
}

// opsDigest hashes each operation's type, the float bits of its
// completion instant and latency, and its shadow flag.
func opsDigest(exp ClientExperiment) string {
	h := sha256.New()
	var buf [18]byte
	for _, op := range exp.Trace.Ops {
		buf[0] = byte(op.Type)
		binary.LittleEndian.PutUint64(buf[1:9], math.Float64bits(op.Completed))
		binary.LittleEndian.PutUint64(buf[9:17], math.Float64bits(op.LatencyMS))
		buf[17] = 0
		if op.Shadowed {
			buf[17] = 1
		}
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestClientStudyBytesPinned holds both of the trace generator's
// schedules to the pins: Parallelism 1 draws and replays on one
// goroutine, Parallelism 2 draws on a second one.
func TestClientStudyBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full client study in -short mode")
	}
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			lab := NewLab(42)
			lab.Parallelism = par
			exps, err := lab.ClientLatencyStudyAll()
			if err != nil {
				t.Fatal(err)
			}
			for _, exp := range exps {
				want, ok := clientStudyPins[exp.Collector]
				if !ok {
					t.Fatalf("no pin for %s", exp.Collector)
				}
				if got := opsDigest(exp); got != want.ops {
					t.Errorf("%s: operation digest = %s, want %s (%d ops)", exp.Collector, got, want.ops, len(exp.Trace.Ops))
				}
				sum := sha256.Sum256([]byte(fmt.Sprintf("%#v\n%#v\n", exp.Read, exp.Update)))
				if got := hex.EncodeToString(sum[:]); got != want.bands {
					t.Errorf("%s: band report digest = %s, want %s", exp.Collector, got, want.bands)
				}
			}
		})
	}
}

// TestNewLabSharesUnmodifiedTestbed holds NewLab's shared Machine to
// its contract: every Lab gets the same value, and a whole evaluation
// on two workers leaves it equal to a freshly built paper testbed.
func TestNewLabSharesUnmodifiedTestbed(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation in -short mode")
	}
	lab := QuickLab(7)
	if lab.Machine != NewLab(8).Machine {
		t.Fatal("NewLab built a testbed of its own")
	}
	lab.Parallelism = 2
	if _, err := lab.RunAll(); err != nil {
		t.Fatal(err)
	}
	if fresh := machine.New(machine.PaperTestbed()); !reflect.DeepEqual(paperTestbed, fresh) {
		t.Errorf("the shared testbed changed during RunAll:\n got %+v\nwant %+v", *paperTestbed, *fresh)
	}
}
