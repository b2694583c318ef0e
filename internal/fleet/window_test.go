package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/labd"
)

// TestProbeWindow pins when Fetch probes its peer. probeWindow probes in
// a row that find nothing close the window, and a closed window answers
// at once, sends no request and counts a peer skip. A probe that hits
// keeps the window open. A view swap (SetMembership) reopens it, and so
// does this node's refutation of a suspicion about itself.
func TestProbeWindow(t *testing.T) {
	const hot = "hot"
	result := []byte(`{"result":1}`)
	var requests atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if r.URL.Path != "/v1/cache/"+hot {
			http.Error(w, `{"error":"not cached"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("X-Labd-Sha256", labd.Digest(result))
		_, _ = w.Write(result)
	}))
	t.Cleanup(peer.Close)
	urls := map[string]string{"a": "http://a.invalid", "b": peer.URL}
	rt, err := New(Config{Self: "a", Nodes: urls})
	if err != nil {
		t.Fatal(err)
	}
	g, err := gossip.New(gossip.Config{Self: "a", URL: urls["a"], Peers: urls,
		Metrics: rt.Metrics(), OnUpdate: rt.SetMembership})
	if err != nil {
		t.Fatal(err)
	}
	rt.AttachGossip(g)
	t.Cleanup(rt.Close)

	// fetch asks for one key and checks that a request went out exactly
	// when Fetch says it probed.
	n := 0
	fetch := func(key string) (ok, probed bool) {
		t.Helper()
		if key == "" {
			n++
			key = fmt.Sprintf("fresh-%d", n)
		}
		before := requests.Load()
		_, ok, probed = rt.Fetch(context.Background(), key)
		want := int64(0)
		if probed {
			want = 1
		}
		if sent := requests.Load() - before; sent != want {
			t.Fatalf("Fetch(%s) sent %d requests with probed=%v", key, sent, probed)
		}
		return ok, probed
	}
	misses := func(k int, why string) {
		t.Helper()
		for i := range k {
			if ok, probed := fetch(""); ok || !probed {
				t.Fatalf("%s: fetch %d of %d: hit=%v probed=%v, want an empty probe", why, i+1, k, ok, probed)
			}
		}
	}
	closed := func(why string) {
		t.Helper()
		skips := rt.Stats().PeerSkips
		if ok, probed := fetch(""); ok || probed {
			t.Fatalf("%s: hit=%v probed=%v, want the window closed", why, ok, probed)
		}
		if got := rt.Stats().PeerSkips; got != skips+1 {
			t.Fatalf("%s: peer skips %d -> %d, want one more", why, skips, got)
		}
	}

	misses(probeWindow, "open at boot")
	closed("after probeWindow empty probes")
	if st := rt.Stats(); st.PeerProbes != probeWindow || st.PeerHits != 0 {
		t.Fatalf("stats %+v, want %d probes and no hit", st, probeWindow)
	}

	rt.SetMembership(rt.Epoch(), urls, nil)
	misses(probeWindow-1, "reopened by a view swap")
	if ok, probed := fetch(hot); !ok || !probed {
		t.Fatalf("fetch of a key the peer holds: hit=%v probed=%v", ok, probed)
	}
	misses(probeWindow, "kept open by a hit")
	closed("after probeWindow empty probes since the hit")

	// A peer's claim that this node is suspect, which the node refutes.
	ping, err := json.Marshal(struct {
		T      string         `json:"t"`
		From   string         `json:"from"`
		Deltas []gossip.Delta `json:"deltas"`
	}{"ping", "b", []gossip.Delta{{ID: "a", State: gossip.StateSuspect}}})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	g.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/gossip/ping", strings.NewReader(string(ping))))
	if w.Code != http.StatusOK || rt.Metrics().Counter("fleet.gossip.refutations") != 1 {
		t.Fatalf("ping with a suspicion of a: HTTP %d, %d refutations; want 200 and 1",
			w.Code, rt.Metrics().Counter("fleet.gossip.refutations"))
	}
	misses(probeWindow, "reopened by a refutation")
	closed("after probeWindow empty probes since the refutation")
}
