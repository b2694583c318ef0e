package client

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"jvmgc/internal/obs"
)

// TestTraceparentMinted: a tracing client sends a well-formed W3C
// traceparent, keeps one trace ID across retries of the same
// submission, and reports the daemon's X-Labd-Trace as authoritative.
func TestTraceparentMinted(t *testing.T) {
	var headers []string
	ts, calls := scriptServer(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		headers = append(headers, r.Header.Get("traceparent"))
		if n == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		w.Header().Set("X-Labd-Trace", strings.Split(r.Header.Get("traceparent"), "-")[1])
		okJobResponse(w)
	})
	c := fastClient(ts.URL)
	c.Trace = true
	c.TraceSeed = 42

	sub, err := c.Submit(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
	tid, _, ok := obs.ParseTraceparent(headers[0])
	if !ok {
		t.Fatalf("malformed traceparent %q", headers[0])
	}
	if headers[0] != headers[1] {
		t.Errorf("retry changed the traceparent: %q vs %q", headers[0], headers[1])
	}
	if sub.TraceID != tid.String() {
		t.Errorf("submission trace id = %q, want %q", sub.TraceID, tid)
	}

	// Each logical submission gets a distinct trace.
	var second string
	ts2, _ := scriptServer(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		second = r.Header.Get("traceparent")
		okJobResponse(w)
	})
	c.BaseURL = ts2.URL
	if _, err := c.Submit(context.Background(), testSpec); err != nil {
		t.Fatal(err)
	}
	if second == headers[0] {
		t.Error("two submissions shared a traceparent")
	}

	// A fixed seed reproduces the same ID sequence.
	c2 := fastClient(ts2.URL)
	c2.Trace = true
	c2.TraceSeed = 42
	tp, id := c2.mintTraceparent()
	if wantTID, _, _ := obs.ParseTraceparent(headers[0]); id != wantTID.String() {
		t.Errorf("same-seed client minted %q, want %q (from %q)", id, wantTID, tp)
	}
}

// TestUntracedClientSendsNoHeader: tracing off means no traceparent on
// the wire and no TraceID in the submission.
func TestUntracedClientSendsNoHeader(t *testing.T) {
	ts, _ := scriptServer(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("traceparent"); got != "" {
			t.Errorf("untraced client sent traceparent %q", got)
		}
		okJobResponse(w)
	})
	c := fastClient(ts.URL)
	sub, err := c.Submit(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.TraceID != "" {
		t.Errorf("untraced submission carries trace id %q", sub.TraceID)
	}
}
