package fleet_test

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"jvmgc/internal/fleet"
	"jvmgc/internal/fleet/gossip"
)

// fleetState GETs url's /fleet/state.
func fleetState(t *testing.T, url string) fleet.FleetState {
	t.Helper()
	var fs fleet.FleetState
	if err := json.Unmarshal([]byte(fetchText(t, url+"/fleet/state")), &fs); err != nil {
		t.Fatal(err)
	}
	return fs
}

// probeCounter counts the /v1/state and /healthz requests a node serves.
type probeCounter struct{ state, healthz atomic.Int64 }

func (c *probeCounter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/state":
			c.state.Add(1)
		case "/healthz":
			c.healthz.Add(1)
		}
		h.ServeHTTP(w, r)
	})
}

// TestFleetStateOneReading: /fleet/state's rows are gossip's membership
// plus each node's /v1/state reading, from the one fan-out the rollup
// folds — every call costs a peer exactly one /v1/state request and no
// /healthz request. Rows carry gossip's state and incarnation (a refuted
// suspicion shows as alive@1); a draining node's reading says so, and a
// killed node keeps its gossip row with no reading.
func TestFleetStateOneReading(t *testing.T) {
	nodes, kill := startFleet(t, []string{"a", "b", "c"}, fleetOpts{
		// Ticks let b refute a suspicion and a suspect the killed c; the
		// long window keeps c a suspect rather than dead.
		tick: 20 * time.Millisecond, suspect: time.Minute,
	})
	counters := make(map[string]*probeCounter)
	for id, n := range nodes {
		counters[id] = &probeCounter{}
		n.swap.set(counters[id].wrap(n.rt.Handler()))
	}
	a := nodes["a"]

	// call fetches /fleet/state from a once and checks what each peer
	// served for it: one /v1/state request from a live peer, none from
	// a dead one or from a itself (its reading is read in process), and
	// never a /healthz request.
	wantState := map[string]int64{}
	call := func(live ...string) map[string]fleet.NodeInfo {
		t.Helper()
		l := fleetState(t, a.ts.URL)
		for _, id := range live {
			wantState[id]++
		}
		for id, c := range counters {
			if got := c.state.Load(); got != wantState[id] {
				t.Errorf("node %s served %d /v1/state requests, want %d", id, got, wantState[id])
			}
			if got := c.healthz.Load(); got != 0 {
				t.Errorf("node %s served %d /healthz requests, want 0", id, got)
			}
		}
		// Rows mirror a's memberlist, state and incarnation alike.
		members := a.g.Memberlist().Members()
		if l.Self != "a" || len(l.Nodes) != len(members) {
			t.Fatalf("/fleet/state: self %q, %d rows; want a, %d", l.Self, len(l.Nodes), len(members))
		}
		rows := make(map[string]fleet.NodeInfo, len(l.Nodes))
		for i, n := range l.Nodes {
			m := members[i]
			if n.ID != m.ID || n.State != m.StateName || n.Incarnation != m.Incarnation {
				t.Errorf("row %d = %s %s@%d, memberlist %s %s@%d",
					i, n.ID, n.State, n.Incarnation, m.ID, m.StateName, m.Incarnation)
			}
			rows[n.ID] = n
		}
		return rows
	}

	// /fleet/state is the fleet's one reading; no other rollup of it is
	// served.
	for _, path := range []string{"/fleet/slo", "/fleet/traces", "/fleet/nodes"} {
		resp, err := http.Get(a.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}

	for i := 0; i < 2; i++ {
		rows := call("b", "c")
		for _, id := range []string{"a", "b", "c"} {
			n := rows[id]
			if n.State != "alive" || n.Reading == nil || n.Reading.Draining || n.Reading.Node != id {
				t.Errorf("healthy fleet, node %s: state %q, reading %+v", id, n.State, n.Reading)
			}
		}
	}

	// A refuted suspicion bumps b's incarnation.
	a.g.Suspect("b")
	waitUntil(t, 10*time.Second, "b to refute a's suspicion", func() bool {
		st, inc, _ := a.g.Memberlist().State("b")
		return st == gossip.StateAlive && inc >= 1
	})

	// b drains; c crashes, and a's probes make it a suspect.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := nodes["b"].srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	kill("c")
	waitUntil(t, 10*time.Second, "a to suspect the killed c", func() bool {
		st, _, _ := a.g.Memberlist().State("c")
		return st == gossip.StateSuspect
	})

	rows := call("b")
	if n := rows["a"]; n.State != "alive" || !n.Self || n.Reading == nil || n.Reading.Draining {
		t.Errorf("entry node a: state %q, self %v, reading %+v", n.State, n.Self, n.Reading)
	}
	if n := rows["b"]; n.State != "alive" || n.Incarnation < 1 || n.Reading == nil || !n.Reading.Draining {
		t.Errorf("draining node b: %s@%d, reading %+v; want alive@1+, a draining reading",
			n.State, n.Incarnation, n.Reading)
	}
	if n := rows["c"]; n.State != "suspect" || n.Reading != nil {
		t.Errorf("killed node c: state %q, reading %+v; want suspect with no reading", n.State, n.Reading)
	}
}
