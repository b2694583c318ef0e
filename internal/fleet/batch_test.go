package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"jvmgc/internal/labd"
)

// TestFleetBatchParity pins that a node of a 3-node fleet answers a
// batch as a single daemon does: a batch over the job limit, or with no
// jobs, gets the daemon's 400 body and simulates nothing; and a batch
// that runs (a duplicate pair, a job of an unknown kind whose error
// needs JSON escaping, jobs owned by the entry node and by a peer) gets,
// index by index, the daemon's status, key, error and result bytes,
// every event line framed as json.Encoder frames it.
func TestFleetBatchParity(t *testing.T) {
	nodes, _ := startFleet(t, []string{"a", "b", "c"}, fleetOpts{})
	a := nodes["a"]
	solo, err := labd.New(labd.Config{Workers: 2, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	tsSolo := httptest.NewServer(solo.Handler())
	t.Cleanup(func() {
		tsSolo.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = solo.Drain(ctx)
	})
	post := func(url string, jobs []labd.JobSpec) (int, []byte) {
		t.Helper()
		payload, err := json.Marshal(labd.BatchRequest{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(url+"/v1/jobs/batch", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	simulations := func() int64 {
		n := solo.Metrics().Counter("labd.simulations")
		for _, node := range nodes {
			n += node.srv.Metrics().Counter("labd.simulations")
		}
		return n
	}

	cheap := labd.JobSpec{Kind: labd.KindSimulate, Collector: "CMS", HeapBytes: 2 << 30,
		DurationSeconds: 5, Seed: 1}
	over := make([]labd.JobSpec, 1025)
	for i := range over {
		over[i] = cheap
	}
	for _, c := range []struct {
		name string
		jobs []labd.JobSpec
		want string
	}{
		{"over the limit", over, `{"error":"labd: batch: 1025 jobs exceeds limit 1024"}` + "\n"},
		{"no jobs", []labd.JobSpec{}, `{"error":"labd: batch: no jobs"}` + "\n"},
	} {
		for name, url := range map[string]string{"daemon": tsSolo.URL, "fleet node": a.ts.URL} {
			if status, body := post(url, c.jobs); status != http.StatusBadRequest || string(body) != c.want {
				t.Errorf("%s, %s: HTTP %d %q, want 400 %q", c.name, name, status, body, c.want)
			}
		}
	}
	if n := simulations(); n != 0 {
		t.Errorf("rejected batches ran %d simulations", n)
	}

	forwarded := ownedSpecs(a.rt, "b", 1)[0]
	local := ownedSpecs(a.rt, "a", 1)[0]
	jobs := []labd.JobSpec{forwarded, forwarded, {Kind: "gc<log>"}, local}
	events := func(name, url string) map[int]labd.BatchEvent {
		t.Helper()
		status, body := post(url, jobs)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d %s", name, status, body)
		}
		lines := bytes.SplitAfter(body, []byte("\n"))
		var header labd.BatchHeader
		if err := json.Unmarshal(lines[0], &header); err != nil || header.Batch != len(jobs) {
			t.Fatalf("%s: header %q (%v), want a batch of %d", name, lines[0], err, len(jobs))
		}
		out := make(map[int]labd.BatchEvent)
		for _, line := range lines[1:] {
			if len(line) == 0 {
				continue
			}
			var ev labd.BatchEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("%s: event line %q: %v", name, line, err)
			}
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(ev); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(line, want.Bytes()) {
				t.Errorf("%s: event line\n got %q\nwant %q", name, line, want.Bytes())
			}
			out[ev.Index] = ev
		}
		if len(out) != len(jobs) {
			t.Fatalf("%s: %d distinct events, want %d", name, len(out), len(jobs))
		}
		return out
	}
	want := events("daemon", tsSolo.URL)
	got := events("fleet node", a.ts.URL)
	for i := range jobs {
		w, g := want[i], got[i]
		if g.Status != w.Status || g.Key != w.Key || g.Error != w.Error || !bytes.Equal(g.Result, w.Result) {
			t.Errorf("job %d: fleet node answered status %q key %q error %q result %d B; daemon %q %q %q %d B",
				i, g.Status, g.Key, g.Error, len(g.Result), w.Status, w.Key, w.Error, len(w.Result))
		}
	}
	if got[2].Status != labd.StatusFailed || got[0].Status != labd.StatusDone {
		t.Errorf("statuses %q and %q, want the unknown kind failed and the rest done",
			got[2].Status, got[0].Status)
	}
}
