package labd

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/telemetry"
)

// svcMixBody is a hot submission of the svc-mix benchmark, as its
// clients encode it.
const svcMixBody = `{"job":{"kind":"simulate","collector":"ParallelOld","heap_bytes":2147483648,"threads":8,"alloc_bytes_per_sec":150000000,"duration_seconds":560,"seed":42000}}`

// memoOnly is a server with nothing but a decode memo, all that
// DecodeKeyed uses.
func memoOnly() *Server {
	return &Server{memo: newDecodeMemo(),
		decodeReused: telemetry.NewMetrics().CounterHandle("labd.submit.decode_reused")}
}

func memoServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

// decoded is one answer for a body: its request and key, or its error.
type decoded struct {
	req SubmitRequest
	key string
	err string
}

// parse is what DecodeSubmit and SpecKeyInto make of body, in
// DecodeKeyed's form: key "" for a spec that cannot be keyed.
func parse(body []byte) decoded {
	req, err := DecodeSubmit(body)
	if err != nil {
		return decoded{err: err.Error()}
	}
	var key [64]byte
	if SpecKeyInto(req.Job, &key) != nil {
		return decoded{req: req}
	}
	return decoded{req: req, key: string(key[:])}
}

func memoAnswer(s *Server, body []byte) decoded {
	req, key, err := s.DecodeKeyed(body)
	if err != nil {
		return decoded{err: err.Error()}
	}
	return decoded{req: req, key: key}
}

// FuzzDecodeMemo holds a server's decode memo to the parser it stands in
// front of: for any body, every answer DecodeKeyed gives, on the body's
// first arrival, its second (which stores it) and later ones (memo
// hits), equals DecodeSubmit + SpecKeyInto's, error for error. A body
// that differs from a stored one in one byte gets its own answer, never
// the stored one's. A body that fails to decode or to key, or is over
// memoMaxBody, is never stored. The seed corpus under
// testdata/fuzz/FuzzDecodeMemo holds the svc-mix envelope, a bare spec,
// envelopes with async and timeout_seconds, case-variant field names,
// duplicate keys, \u escapes, invalid specs, bodies that are not JSON
// and a body over the size bound.
func FuzzDecodeMemo(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, at uint, x byte) {
		s := memoOnly()
		variant := bytes.Clone(body)
		if len(variant) > 0 {
			variant[at%uint(len(variant))] ^= max(x, 1)
		}
		want, wantVariant := parse(body), parse(variant)
		for arrival := 1; arrival <= 3; arrival++ {
			if got := memoAnswer(s, body); got != want {
				t.Fatalf("arrival %d: memo answered %+v, the parser %+v", arrival, got, want)
			}
		}
		stored := want.err == "" && want.key != "" && len(body) <= memoMaxBody
		if _, ok := s.memo.lookup(body); ok != stored {
			t.Fatalf("body stored=%v after three arrivals, want %v (%+v, %d bytes)", ok, stored, want, len(body))
		}
		for arrival := 1; arrival <= 2; arrival++ {
			if got := memoAnswer(s, variant); got != wantVariant {
				t.Fatalf("one-byte variant, arrival %d: memo answered %+v, the parser %+v", arrival, got, wantVariant)
			}
		}
		if got := memoAnswer(s, body); got != want {
			t.Fatalf("after the variant: memo answered %+v, the parser %+v", got, want)
		}
		if got := memoAnswer(s, variant); got != wantVariant {
			t.Fatalf("variant again: memo answered %+v, the parser %+v", got, wantVariant)
		}
	})
}

// TestDecodeMemoHitZeroAlloc: a repeated body is answered from the memo
// without an allocation, and each such answer counts as
// labd.submit.decode_reused.
func TestDecodeMemoHitZeroAlloc(t *testing.T) {
	s := memoServer(t)
	body := []byte(svcMixBody)
	want := parse(body)
	for range 2 {
		if got := memoAnswer(s, body); got != want {
			t.Fatalf("memo answered %+v, the parser %+v", got, want)
		}
	}
	if n := s.metrics.Counter("labd.submit.decode_reused"); n != 0 {
		t.Fatalf("decode_reused %d after a body's first two arrivals, want 0", n)
	}
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, key, err := s.DecodeKeyed(body); err != nil || key != want.key {
			t.Fatalf("memo hit: key %q, %v", key, err)
		}
	}); allocs != 0 {
		t.Errorf("memo hit allocates %.1f/op, want 0", allocs)
	}
	if n := s.metrics.Counter("labd.submit.decode_reused"); n != runs+1 {
		t.Errorf("decode_reused %d after %d hits", n, runs+1)
	}
}

func memoLen(s *Server) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.entries)
}

// TestDecodeMemoEviction: bodies that arrive once are never stored, so
// they evict nothing; a full memo evicts an entry that served no hit
// since the hand last passed it, and stores nothing while every entry
// keeps being hit.
func TestDecodeMemoEviction(t *testing.T) {
	s := memoServer(t)
	body := func(seed int) []byte {
		return []byte(fmt.Sprintf(`{"job":{"kind":"simulate","collector":"CMS","duration_seconds":5,"seed":%d}}`, seed))
	}
	held := func(seed int) bool {
		s.memo.mu.Lock()
		defer s.memo.mu.Unlock()
		_, ok := s.memo.entries[string(body(seed))]
		return ok
	}
	hitAll := func(seeds ...int) {
		for _, seed := range seeds {
			if _, ok := s.memo.lookup(body(seed)); !ok {
				t.Fatalf("body %d not in the memo", seed)
			}
		}
	}
	hot := make([]int, memoEntries)
	for i := range hot {
		hot[i] = i
		memoAnswer(s, body(i))
		memoAnswer(s, body(i))
	}
	if n := memoLen(s); n != memoEntries {
		t.Fatalf("memo holds %d bodies after %d arrived twice", n, memoEntries)
	}

	// Fresh bodies arriving once, between rounds of hits, take no slot.
	for round := range 3 {
		hitAll(hot...)
		for i := range memoEntries {
			memoAnswer(s, body(10_000+round*memoEntries+i))
		}
	}
	hitAll(hot...)

	// Every entry has served a hit: a repeated new body finds no slot,
	// and the hand's pass leaves each entry one more chance.
	memoAnswer(s, body(1_000_001))
	memoAnswer(s, body(1_000_001))
	if held(1_000_001) {
		t.Fatal("a new body evicted an entry that kept being hit")
	}
	// Every entry but hot[5] is hit again: the next repeated body takes
	// hot[5]'s slot.
	hitAll(hot[:5]...)
	hitAll(hot[6:]...)
	memoAnswer(s, body(1_000_002))
	memoAnswer(s, body(1_000_002))
	if !held(1_000_002) || held(5) || memoLen(s) != memoEntries {
		t.Fatalf("after a repeated body: stored %v, hot[5] held %v, %d bodies; want true, false, %d",
			held(1_000_002), held(5), memoLen(s), memoEntries)
	}
}

// TestDecodeMemoConcurrent: goroutines decoding overlapping bodies at
// once, more bodies than the memo holds, each get the parser's answer
// while entries are stored, hit and evicted around them.
func TestDecodeMemoConcurrent(t *testing.T) {
	s := memoOnly()
	bodies := make([][]byte, memoEntries+memoEntries/2)
	want := make([]decoded, len(bodies))
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"job":{"kind":"simulate","collector":"G1","duration_seconds":5,"seed":%d}}`, i))
		want[i] = parse(bodies[i])
	}
	const workers, calls = 4, 3000
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range calls {
				i := (c*7 + w*131) % len(bodies)
				if got := memoAnswer(s, bodies[i]); got != want[i] {
					errs <- fmt.Sprintf("body %d: memo answered %+v, the parser %+v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := memoLen(s); n == 0 || n > memoEntries {
		t.Errorf("memo holds %d bodies, want 1 to %d", n, memoEntries)
	}
}

// TestDecodeMemoServesSubmissions: through the daemon's handler, a body's
// third arrival is answered from the memo with the status, headers and
// bytes of the first, and a body over memoMaxBody is decoded each time.
func TestDecodeMemoServesSubmissions(t *testing.T) {
	s := memoServer(t)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		if _, err := b.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, b.Bytes()
	}
	spec := `{"job":{"kind":"simulate","collector":"CMS","duration_seconds":5,"seed":9}`
	large := spec + `,"timeout_seconds":30` + strings.Repeat(" ", memoMaxBody) + `}`
	for _, c := range []struct {
		name   string
		body   string
		reused int64
	}{{"small", spec + "}", 1}, {"over the bound", large, 0}} {
		before := s.metrics.Counter("labd.submit.decode_reused")
		first, want := post(c.body)
		for arrival := 2; arrival <= 3; arrival++ {
			resp, got := post(c.body)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Labd-Cache") != "hit" ||
				resp.Header.Get("X-Labd-Key") != first.Header.Get("X-Labd-Key") || !bytes.Equal(got, want) {
				t.Errorf("%s, arrival %d: HTTP %d, cache %q, key %q, %d bytes; want 200, a hit of key %q and the first answer's %d bytes",
					c.name, arrival, resp.StatusCode, resp.Header.Get("X-Labd-Cache"), resp.Header.Get("X-Labd-Key"),
					len(got), first.Header.Get("X-Labd-Key"), len(want))
			}
		}
		if n := s.metrics.Counter("labd.submit.decode_reused") - before; n != c.reused {
			t.Errorf("%s: decode_reused grew by %d over three arrivals, want %d", c.name, n, c.reused)
		}
	}
}
