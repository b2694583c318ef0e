package fleet_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
// every event line framed as json.Encoder frames it. A job a peer owns
// travels in the shard as the client sent it, so '<' and U+2028 cost no
// more bytes there than in the batch.
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
	// encode writes a batch body as a client may: no HTML escaping, and
	// U+2028 as its three UTF-8 bytes, which JSON allows in a string.
	encode := func(jobs []labd.JobSpec) []byte {
		t.Helper()
		var payload bytes.Buffer
		enc := json.NewEncoder(&payload)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(labd.BatchRequest{Jobs: jobs}); err != nil {
			t.Fatal(err)
		}
		return bytes.ReplaceAll(payload.Bytes(), []byte(`\u2028`), []byte("\u2028"))
	}
	postBody := func(url string, payload []byte) (int, []byte) {
		t.Helper()
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
	post := func(url string, jobs []labd.JobSpec) (int, []byte) {
		t.Helper()
		return postBody(url, encode(jobs))
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
	events := func(name, url string, jobs []labd.JobSpec) map[int]labd.BatchEvent {
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
	same := func(what string, want, got map[int]labd.BatchEvent) {
		t.Helper()
		for i := range want {
			w, g := want[i], got[i]
			if g.Status != w.Status || g.Key != w.Key || g.Error != w.Error || !bytes.Equal(g.Result, w.Result) {
				t.Errorf("%s, job %d: fleet node answered status %q key %q error %.80q result %d B; daemon %q %q %.80q %d B",
					what, i, g.Status, g.Key, g.Error, len(g.Result), w.Status, w.Key, w.Error, len(w.Result))
			}
		}
	}
	want := events("daemon", tsSolo.URL, jobs)
	got := events("fleet node", a.ts.URL, jobs)
	same("mixed batch", want, got)
	if got[2].Status != labd.StatusFailed || got[0].Status != labd.StatusDone {
		t.Errorf("statuses %q and %q, want the unknown kind failed and the rest done",
			got[2].Status, got[0].Status)
	}

	// A job b owns whose unused string field holds text s.
	ownedByB := func(s string) labd.JobSpec {
		t.Helper()
		for seed := uint64(1); seed < 200; seed++ {
			spec := cheap
			spec.Benchmark, spec.Seed = s, seed
			if key, err := labd.SpecKey(spec); err == nil && a.rt.Ring().Lookup(key) == "b" {
				return spec
			}
		}
		t.Fatal("no seed places the spec on b")
		return cheap
	}

	// 2 MiB of '<' fit the body limit as the client sent them, and must
	// still fit it in the shard a forwards to b.
	angled := []labd.JobSpec{ownedByB(strings.Repeat("<", 2<<20))}
	want = events("daemon", tsSolo.URL, angled)
	got = events("fleet node", a.ts.URL, angled)
	same("2 MiB of '<'", want, got)
	if got[0].Status != labd.StatusDone {
		t.Errorf("2 MiB of '<': status %q (%.80q), want done", got[0].Status, got[0].Error)
	}

	// 1.5 Mi of U+2028, three bytes each as the client sent them, fit
	// the body limit; encoding/json would write each as six bytes and
	// outgrow it. The shard a forwards to b carries the job's own bytes,
	// so both jobs run as they do on a daemon.
	separated := []labd.JobSpec{ownedByB(strings.Repeat("\u2028", 3<<19)), local}
	want = events("daemon", tsSolo.URL, separated)
	got = events("fleet node", a.ts.URL, separated)
	same("1.5 Mi of U+2028", want, got)
	if got[0].Status != labd.StatusDone || got[1].Status != labd.StatusDone {
		t.Errorf("1.5 Mi of U+2028: statuses %q (%.80q) and %q, want both done",
			got[0].Status, got[0].Error, got[1].Status)
	}
}

// TestFleetBatchOwnerRejection: a peer that rejects a forwarded shard
// with a 4xx fails each of the shard's jobs with the bare message of its
// error document, as a daemon's event carries it. A real owner accepts
// every shard its batch fit, so a stub owner stands in.
func TestFleetBatchOwnerRejection(t *testing.T) {
	f := newFakeOwner(t)
	f.set(func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":"owner says no"}` + "\n"))
	})
	rt, _, url := startEntry(t, f)
	spec, _ := ownedSpec(t, rt, "owner")
	payload, err := json.Marshal(labd.BatchRequest{Jobs: []labd.JobSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []labd.BatchEvent
	if _, _, err := labd.ReadBatchStream(resp.Body, func(ev labd.BatchEvent) {
		events = append(events, ev)
	}); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, stream %v", resp.StatusCode, err)
	}
	if len(events) != 1 || events[0].Status != labd.StatusFailed || events[0].Error != "owner says no" {
		t.Errorf("events %+v, want one failed with error %q", events, "owner says no")
	}
}
