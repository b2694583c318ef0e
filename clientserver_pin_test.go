package jvmgc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"jvmgc"
)

// clientServerPins holds, per case, the SHA-256 of the %#v of
// RunClientServer's whole result at seed 11 over a 10-minute client
// phase: every operation, every pause and every band field, each float
// in the shortest form that round-trips its bits.
var clientServerPins = map[string]string{
	"ParallelOld/stress=false/workload=custom": "8683473e7760caadf0302bb2ace2839b26724c920d699d4d71262b9930f893a5",
	"ParallelOld/stress=false/workload=B":      "8d03f196ae1a4531756de780e5db2517bafd732668d317fd9439dda2f1b7fcfe",
	"ParallelOld/stress=true/workload=custom":  "4ce049fd8f31e9298aff791c1a473f88447715419abfc8b6f4631f1245cb5a1b",
	"ParallelOld/stress=true/workload=B":       "6b460fb76a44a2f6d4e0aadbba4c348f34efd2881d15a5868e04ed1c2837f2a7",
	"CMS/stress=false/workload=custom":         "8b58c0d87a611bd62ff2305a7955aac824f4c4cabad1c7eb528f396604fe2860",
	"CMS/stress=false/workload=B":              "cc071ca936e2758f8c00d0a194d3a9024483e85b207505f9d20c8fe9d7920114",
	"CMS/stress=true/workload=custom":          "60ab37ad8673130527db3145876440af961e561c85ab4d664e47ac4b7991b7a3",
	"CMS/stress=true/workload=B":               "90bce875fa06277d9f3e49c76cb1448e3a97d9c283bc10c39e6ab9781e19be70",
	"G1/stress=false/workload=custom":          "df83d0ed62a401ee58a2ed1a74141b977935dbafae60e854b2d4c11cb69db72b",
	"G1/stress=false/workload=B":               "6753f21d5b0a5f4a09976c6ec656b2ad3e6bd235e48b3a5145513f9c72baf23e",
	"G1/stress=true/workload=custom":           "d7cedc850daf847f4858ffa29d0f7241e39df31a7a44cf7656d9b009a04a734f",
	"G1/stress=true/workload=B":                "a5e79ef14e20759fcfdfd69f6d3f5b243f634ce59f51942fce5ec9390dcf7cf3",
}

// TestRunClientServerPinned pins labd's clientserver jobs bit for bit:
// the three collectors of the paper's §4 study, the normal and the
// stress server, the custom 50/50 mix and YCSB workload B.
func TestRunClientServerPinned(t *testing.T) {
	for _, gc := range []string{"ParallelOld", "CMS", "G1"} {
		for _, stress := range []bool{false, true} {
			for _, w := range []byte{0, 'B'} {
				workload := "custom"
				if w != 0 {
					workload = string(w)
				}
				name := fmt.Sprintf("%s/stress=%t/workload=%s", gc, stress, workload)
				res, err := jvmgc.RunClientServer(jvmgc.ClientServerOptions{
					Collector: gc,
					Stress:    stress,
					Duration:  10 * time.Minute,
					Workload:  w,
					Seed:      11,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				h := sha256.New()
				fmt.Fprintf(h, "%#v\n", *res)
				got := hex.EncodeToString(h.Sum(nil))
				if want := clientServerPins[name]; got != want {
					t.Errorf("%s: result digest = %s, want %s (%d ops)", name, got, want, len(res.Ops))
				}
			}
		}
	}
}
