package client

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"jvmgc/internal/obs"
)

// TestTraceparentMinted: a tracing client sends a well-formed W3C
// traceparent, mints a fresh one for each submission, and reports the
// daemon's X-Labd-Trace as authoritative.
func TestTraceparentMinted(t *testing.T) {
	var headers []string
	ts := scriptServer(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		headers = append(headers, r.Header.Get("traceparent"))
		if n == 1 {
			w.Header().Set("X-Labd-Trace", strings.Split(r.Header.Get("traceparent"), "-")[1])
		} else {
			w.Header().Set("X-Labd-Trace", "00000000000000000000000000000abc")
		}
		okJobResponse(w)
	})
	c := New(ts.URL)
	c.Trace = true

	sub, err := c.Submit(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	tid, _, ok := obs.ParseTraceparent(headers[0])
	if !ok {
		t.Fatalf("malformed traceparent %q", headers[0])
	}
	if sub.TraceID != tid.String() {
		t.Errorf("submission trace id = %q, want %q", sub.TraceID, tid)
	}

	// Each submission gets a fresh traceparent, and the daemon's
	// X-Labd-Trace wins over the ID the client minted.
	second, err := c.Submit(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	tid2, _, ok := obs.ParseTraceparent(headers[1])
	if !ok {
		t.Fatalf("malformed traceparent %q", headers[1])
	}
	if headers[1] == headers[0] || tid2 == tid {
		t.Errorf("two submissions shared a trace: %q and %q", headers[0], headers[1])
	}
	if second.TraceID != "00000000000000000000000000000abc" {
		t.Errorf("submission trace id = %q, want the daemon's X-Labd-Trace", second.TraceID)
	}
}

// TestUntracedClientSendsNoHeader: tracing off means no traceparent on
// the wire and no TraceID in the submission.
func TestUntracedClientSendsNoHeader(t *testing.T) {
	ts := scriptServer(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("traceparent"); got != "" {
			t.Errorf("untraced client sent traceparent %q", got)
		}
		okJobResponse(w)
	})
	c := New(ts.URL)
	sub, err := c.Submit(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.TraceID != "" {
		t.Errorf("untraced submission carries trace id %q", sub.TraceID)
	}
}
