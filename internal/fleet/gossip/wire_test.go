package gossip

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzAppendMessage holds the hand-encoded ping to encoding/json: for
// any message, appendMessage's output decodes to the same value as
// json.Marshal of the message. Go's strconv quoting is not JSON (\x01,
// \x7f, \xe9, \U000e0001); the committed corpus holds each.
func FuzzAppendMessage(f *testing.F) {
	f.Add("ping", "a", "", "b", "http://b:8372", uint8(0), uint64(3), uint8(1))
	f.Add("ping-req", "a", "c", "c", "", uint8(1), uint64(0), uint8(2))
	f.Fuzz(func(t *testing.T, typ, from, target, id, url string, state uint8, inc uint64, n uint8) {
		deltas := []Delta{
			{ID: id, URL: url, State: State(state), Inc: inc},
			{ID: target, URL: from, State: State(state >> 4), Inc: inc >> 1},
		}[:n%3]
		got := appendMessage([]byte("x"), typ, from, target, deltas)[1:]
		want, err := json.Marshal(message{T: typ, From: from, Target: target, Deltas: deltas})
		if err != nil {
			t.Fatal(err)
		}
		var g, w any
		if err := json.Unmarshal(got, &g); err != nil {
			t.Fatalf("hand-encoded message is not JSON: %v\n%q", err, got)
		}
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("hand-encoded message decodes differently\n got %s\nwant %s", got, want)
		}
	})
}
