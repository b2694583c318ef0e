package fleet_test

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"jvmgc/internal/labd"
	"jvmgc/internal/labd/client"
)

// probeWindow mirrors the router's unexported K: the empty probes in a
// row after which a node stops probing its peers.
const probeWindow = 8

// closeProbeWindow sends probeWindow fresh specs the owner owns through
// the owner, each a miss whose peer probe finds nothing, and checks with
// one more that the owner's window is closed: that miss sends no probe.
// It returns the spec, also owned by the owner, that the test goes on
// with.
func closeProbeWindow(t *testing.T, owner *testNode) labd.JobSpec {
	t.Helper()
	specs := ownedSpecs(owner.rt, owner.id, probeWindow+2)
	c := client.New(owner.ts.URL)
	for i, spec := range specs[:probeWindow+1] {
		sub, err := c.Submit(context.Background(), spec)
		if err != nil || sub.Cache != "miss" {
			t.Fatalf("fresh spec %d via %s: %+v, %v; want a miss", i, owner.id, sub, err)
		}
	}
	if st := owner.rt.Stats(); st.PeerProbes != probeWindow || st.PeerSkips != 1 {
		t.Fatalf("%s after %d fresh misses: %d probes, %d skips; want %d and 1",
			owner.id, probeWindow+1, st.PeerProbes, st.PeerSkips, probeWindow)
	}
	return specs[probeWindow+1]
}

// answeredByPeer submits spec through the owner and requires the
// owner's answer to come from the peer tier, with the successor's bytes
// and no simulation.
func answeredByPeer(t *testing.T, owner *testNode, spec labd.JobSpec, want []byte) {
	t.Helper()
	sims := owner.srv.NodeState().Counters["labd.simulations"]
	sub, err := client.New(owner.ts.URL).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Cache != "peer" || sub.Node != owner.id {
		t.Errorf("answer: X-Labd-Cache %q from %q, want \"peer\" from the owner %q", sub.Cache, sub.Node, owner.id)
	}
	if !bytes.Equal(sub.Bytes, want) {
		t.Errorf("answer: %d bytes differ from the successor's %d", len(sub.Bytes), len(want))
	}
	if got := owner.srv.NodeState().Counters["labd.simulations"] - sims; got != 0 {
		t.Errorf("the owner ran %d simulations for a key its successor holds, want 0", got)
	}
}

// TestProbeWindowReopensOnPlacementMove: an owner whose probe window is
// closed leaves placement and comes back; meanwhile its successor
// computes a key of the owner's arc. The view swaps reopen the owner's
// window, so its peer tier recovers the successor's result.
func TestProbeWindowReopensOnPlacementMove(t *testing.T) {
	nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{})
	a, b := nodes["a"], nodes["b"]
	spec := closeProbeWindow(t, a)

	full := map[string]string{"a": a.ts.URL, "b": b.ts.URL}
	epoch := a.rt.Epoch()
	for _, n := range nodes {
		n.rt.SetMembership(epoch+1, map[string]string{"b": b.ts.URL}, nil)
	}
	sub, err := client.New(b.ts.URL).Submit(context.Background(), spec)
	if err != nil || sub.Cache != "miss" || sub.Node != "b" {
		t.Fatalf("with a out of placement: %+v, %v; want a miss computed by b", sub, err)
	}
	for _, n := range nodes {
		n.rt.SetMembership(epoch+2, full, nil)
	}
	answeredByPeer(t, a, spec, sub.Bytes)
}

// stallGate blocks every request to a node's handler while stalled, as
// a stop-the-world pause looks from the network.
type stallGate struct {
	h       http.Handler
	mu      sync.Mutex
	blocked chan struct{}
}

func (g *stallGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	ch := g.blocked
	g.mu.Unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
	g.h.ServeHTTP(w, r)
}

func (g *stallGate) stall() {
	g.mu.Lock()
	g.blocked = make(chan struct{})
	g.mu.Unlock()
}

func (g *stallGate) release() {
	g.mu.Lock()
	if g.blocked != nil {
		close(g.blocked)
		g.blocked = nil
	}
	g.mu.Unlock()
}

// TestProbeWindowReopensOnRefutation: an owner whose probe window is
// closed stalls until its peer suspects it and routes around it;
// meanwhile the successor computes a key of the owner's arc. Released,
// the owner refutes the suspicion, which changes no view it holds, and
// the refutation alone reopens its window, so its peer tier recovers
// the successor's result.
func TestProbeWindowReopensOnRefutation(t *testing.T) {
	nodes, _ := startFleet(t, []string{"a", "b"}, fleetOpts{tick: 20 * time.Millisecond, suspect: 10 * time.Second})
	a, b := nodes["a"], nodes["b"]
	// A pause stops every thread of the owner: its own gossip too, so
	// it learns of the suspicion only from b's probes once released.
	a.g.Close()
	gate := &stallGate{h: a.rt.Handler()}
	a.swap.set(gate)
	t.Cleanup(gate.release) // a stalled handler would wedge the server's Close
	spec := closeProbeWindow(t, a)

	gate.stall()
	waitUntil(t, 5*time.Second, "b to suspect a", func() bool { return b.suspects.Load() == 1 })
	sub, err := client.New(b.ts.URL).Submit(context.Background(), spec)
	if err != nil || sub.Cache != "miss" || sub.Node != "b" {
		t.Fatalf("with a suspected: %+v, %v; want a miss computed by b", sub, err)
	}
	gate.release()
	waitUntil(t, 5*time.Second, "a to refute and b to route to it again", func() bool {
		return a.rt.Metrics().Counter("fleet.gossip.refutations") >= 1 && b.suspects.Load() == 0
	})
	answeredByPeer(t, a, spec, sub.Bytes)
}
