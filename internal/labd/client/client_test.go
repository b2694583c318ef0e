package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"jvmgc/internal/labd"
)

// scriptServer serves each request through fn(n) where n counts requests
// from 1.
func scriptServer(t *testing.T, fn func(n int64, w http.ResponseWriter, r *http.Request)) *httptest.Server {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fn(calls.Add(1), w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func okJobResponse(w http.ResponseWriter) {
	w.Header().Set("X-Labd-Job", "j1")
	w.Header().Set("X-Labd-Key", "k1")
	w.Header().Set("X-Labd-Cache", "miss")
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"kind":"simulate","text":"ok"}` + "\n"))
}

var testSpec = labd.JobSpec{Kind: labd.KindSimulate, DurationSeconds: 1, Seed: 1}

// TestSubmissionDecodes: a submission decodes the daemon's wire types
// end to end.
func TestSubmissionDecodes(t *testing.T) {
	ts := scriptServer(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		var req labd.SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("daemon-side decode: %v", err)
		}
		okJobResponse(w)
	})
	c := New(ts.URL)
	sub, err := c.Submit(context.Background(), testSpec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sub.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != labd.KindSimulate || res.Text != "ok" {
		t.Errorf("decoded result %+v", res)
	}
}

// TestErrorsSurfaceAfterOneRequest: the client sends each request once.
// A 5xx or 4xx answer comes back as a bare *APIError carrying the
// envelope's message, and a 202 whose body does not decode returns the
// decode error; the server sees one request each time.
func TestErrorsSurfaceAfterOneRequest(t *testing.T) {
	var calls atomic.Int64
	ts := scriptServer(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		switch n {
		case 1:
			http.Error(w, `{"error":"transient"}`, http.StatusServiceUnavailable)
		case 2:
			http.Error(w, `{"error":"bad spec"}`, http.StatusBadRequest)
		default:
			w.WriteHeader(http.StatusAccepted)
			_, _ = w.Write([]byte(`{"id": not-json`))
		}
	})
	c := New(ts.URL)
	for i, want := range []APIError{
		{StatusCode: http.StatusServiceUnavailable, Message: "transient"},
		{StatusCode: http.StatusBadRequest, Message: "bad spec"},
	} {
		_, err := c.Submit(context.Background(), testSpec)
		if apiErr, ok := err.(*APIError); !ok || *apiErr != want {
			t.Errorf("answer %d: err = %v, want bare *APIError %+v", i+1, err, want)
		}
	}
	if _, err := c.SubmitAsync(context.Background(), labd.SubmitRequest{Job: testSpec}); err == nil {
		t.Error("a 202 with a malformed body decoded")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3", got)
	}
}
