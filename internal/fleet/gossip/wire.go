package gossip

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// The gossip wire protocol: every message — ping, ack, ping-req, join —
// is one small JSON object, and every message carries membership deltas,
// because piggybacking is how SWIM disseminates state without a
// broadcast round. The hot direction (the once-per-tick ping this node
// originates) is hand-encoded by appending into a reused buffer so a
// gossip tick allocates nothing; the receive direction decodes with
// encoding/json, where an allocation per incoming message is fine.

// Message types.
const (
	msgPing    = "ping"
	msgAck     = "ack"
	msgPingReq = "ping-req"
	msgJoin    = "join"
)

// message is a decoded gossip message.
type message struct {
	T      string  `json:"t"`
	From   string  `json:"from"`
	Target string  `json:"target,omitempty"` // ping-req only: who to probe
	URL    string  `json:"url,omitempty"`    // join only: the joiner's base URL
	Deltas []Delta `json:"deltas,omitempty"`
}

// appendMessage hand-encodes a message into buf and returns the extended
// slice. The output is plain JSON that decodes to the same value as
// json.Marshal of the message (FuzzAppendMessage holds it there).
func appendMessage(buf []byte, t, from, target string, deltas []Delta) []byte {
	buf = append(buf, `{"t":`...)
	buf = appendString(buf, t)
	buf = append(buf, `,"from":`...)
	buf = appendString(buf, from)
	if target != "" {
		buf = append(buf, `,"target":`...)
		buf = appendString(buf, target)
	}
	if len(deltas) > 0 {
		buf = append(buf, `,"deltas":[`...)
		for i := range deltas {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = appendDelta(buf, deltas[i])
		}
		buf = append(buf, ']')
	}
	return append(buf, '}')
}

// appendDelta hand-encodes one membership delta.
func appendDelta(buf []byte, d Delta) []byte {
	buf = append(buf, `{"id":`...)
	buf = appendString(buf, d.ID)
	if d.URL != "" {
		buf = append(buf, `,"url":`...)
		buf = appendString(buf, d.URL)
	}
	buf = append(buf, `,"state":`...)
	buf = strconv.AppendUint(buf, uint64(d.State), 10)
	buf = append(buf, `,"inc":`...)
	buf = strconv.AppendUint(buf, d.Inc, 10)
	return append(buf, '}')
}

// appendString quotes s as a JSON string. Printable ASCII other than the
// quote and the backslash is written verbatim, without allocating; any
// other string goes through encoding/json, whose escapes (unlike Go's
// strconv quoting) every JSON decoder accepts.
func appendString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
