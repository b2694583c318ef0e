package obs

import (
	"regexp"
	"strings"
	"testing"
)

// traceparentRE is W3C Trace Context's version-00 header: lowercase hex
// only (HEXDIGLC).
var traceparentRE = regexp.MustCompile(`^00-[0-9a-f]{32}-[0-9a-f]{16}-[0-9a-f]{2}$`)

// FuzzParseTraceparent holds ParseTraceparent to the W3C grammar: it
// accepts exactly the headers the reference pattern matches with
// non-zero IDs, and Traceparent re-renders an accepted header's version,
// trace ID and parent ID byte for byte.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Add("00-00000000000000000000000000000000-b7ad6b7169203331-01")
	f.Add("01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		want := traceparentRE.MatchString(h) &&
			h[3:35] != strings.Repeat("0", 32) && h[36:52] != strings.Repeat("0", 16)
		if ok != want {
			t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", h, ok, want)
		}
		if ok && Traceparent(tid, sid)[:52] != h[:52] {
			t.Fatalf("Traceparent re-renders %q as %q", h, Traceparent(tid, sid))
		}
	})
}
