// Command gclabd runs the GC laboratory as a service: an HTTP/JSON job
// daemon that schedules simulation jobs on a bounded worker pool and
// memoizes results in a content-addressed cache (every job is
// deterministic in its spec, so identical requests are answered with
// byte-identical cached results).
//
//	gclabd -addr :8372
//
// Submit jobs, read status and scrape metrics:
//
//	curl -s localhost:8372/v1/jobs -d '{"kind":"simulate","collector":"G1","duration_seconds":120,"seed":7}'
//	curl -s localhost:8372/v1/jobs -d '{"job":{"kind":"advise","heap_bytes":17179869184,"alloc_bytes_per_sec":6e8,"max_pause_ms":250},"async":true}'
//	curl -s localhost:8372/v1/jobs/j1
//	curl -s localhost:8372/metrics
//	curl -s localhost:8372/healthz
//
// Fleet mode shards the daemon across nodes (internal/fleet): every
// node runs the same command with the same -peers membership and its
// own -fleet identity, and any node accepts any job — placement is by
// consistent hash of the job's content address, the cache gains a peer
// tier, and /fleet/* serves the fleet-wide observability rollup:
//
//	gclabd -addr :8372 -fleet a -peers a=http://h1:8372,b=http://h2:8372,c=http://h3:8372
//
// Every fleet process runs a SWIM gossip failure detector, and -peers is
// its boot membership: a node that stops answering probes, or whose
// connection fails on a forward, is suspected and routed around, then
// confirmed via indirect probes through peers and eventually removed
// from placement — and rejoins automatically when it answers again.
// -peers without -fleet runs a standalone router: no local daemon, jobs
// are only forwarded, and it gossips as a member that never announces,
// so it learns liveness without being placed. New nodes join a running
// fleet without membership restarts:
//
//	gclabd -addr :8375 -fleet d -advertise http://h4:8375 -join http://h1:8372
//
// The joiner fetches the membership snapshot from a seed, warms its
// future cache arc from the current owners, and only then announces
// itself into placement. POST /v1/fleet/leave (or SIGTERM on a fleet
// node) departs gracefully: the leave is broadcast, the node's cached
// arc is handed to its successors, in-flight jobs drain, then the
// process exits — zero client-visible failures.
//
// SIGTERM/SIGINT drain gracefully: intake stops (healthz flips to
// draining), queued and running jobs finish, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/fleet"
	"jvmgc/internal/fleet/gossip"
	"jvmgc/internal/labd"
	"jvmgc/internal/obs"
)

// parsePeers parses "id=url,id=url" fleet membership.
func parsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("peer %q: want id=url", entry)
		}
		out[strings.TrimSpace(id)] = strings.TrimRight(strings.TrimSpace(url), "/")
	}
	if len(out) == 0 {
		return nil, errors.New("no peers in -peers")
	}
	return out, nil
}

func main() {
	var (
		addr        = flag.String("addr", ":8372", "listen address")
		workers     = flag.Int("workers", 0, "concurrent job executors (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "FIFO backlog bound; beyond it submissions get HTTP 429")
		cacheSize   = flag.Int("cache-entries", 256, "result cache bound (LRU eviction)")
		cacheDir    = flag.String("cache-dir", "", "crash-safe on-disk result cache directory; entries are checksummed, written atomically, and survive restarts (empty = memory only)")
		timeout     = flag.Duration("timeout", 2*time.Minute, "default per-job queue+run timeout")
		parallelism = flag.Int("parallelism", 1, "per-job worker fan-out for sweep kinds (advise, ranking)")
		drainWait   = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs on shutdown")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "fault-injection seed; a fixed seed replays a chaos campaign")
		chaosSpec   = flag.String("chaos-spec", "", "fault-injection spec, e.g. 'labd/job.panic:p=0.01;labd/http.flaky:every=50' (empty disables injection)")

		fleetID  = flag.String("fleet", "", "this node's fleet identity; must name an entry in -peers (empty with -peers = standalone router)")
		peerSpec = flag.String("peers", "", "fleet membership as id=url,id=url,... (empty = standalone daemon, no fleet)")
		vnodes   = flag.Int("fleet-vnodes", 0, "virtual nodes per fleet member on the placement ring (0 = default 128)")
		loadFac  = flag.Float64("fleet-load-factor", 1.25, "bounded-load multiplier; a node holds at most ceil(factor x mean pending) routed jobs (<=1 disables the bound)")

		joinSeeds  = flag.String("join", "", "comma-separated seed URLs of a running fleet to join (requires -fleet and -advertise)")
		advertise  = flag.String("advertise", "", "base URL peers use to reach this node (default: this node's -peers entry)")
		gossipTick = flag.Duration("gossip-interval", time.Second, "gossip protocol period")
		suspectTO  = flag.Duration("suspect-timeout", 0, "how long a suspicion lives before a death declaration (0 = 8x gossip interval; always raised to 32x the runtime's worst GC pause)")

		trace      = flag.Bool("trace", true, "request tracing: per-request spans at /debug/traces, exemplars on /metrics")
		traceCap   = flag.Int("trace-capacity", 256, "completed traces retained in the ring (slowest are kept longer)")
		traceSlow  = flag.Int("trace-slowest", 16, "slowest traces pinned beyond ring eviction")
		traceSeed  = flag.Uint64("trace-seed", 0, "trace/span ID seed; fixed seed reproduces the ID stream (0 = from clock)")
		sloLatency = flag.Duration("slo-latency", 500*time.Millisecond, "SLO latency threshold; slower requests burn the latency budget")
		sloTarget  = flag.Float64("slo-target", 0.99, "SLO latency objective: fraction of requests under the threshold")
		sloErrTgt  = flag.Float64("slo-error-target", 0.999, "SLO availability objective: fraction of requests that succeed")
	)
	flag.Parse()

	chaos, err := faultinject.Parse(*chaosSeed, *chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gclabd:", err)
		os.Exit(2)
	}
	if chaos.Enabled() {
		fmt.Fprintf(os.Stderr, "gclabd: CHAOS ENABLED: seed=%d spec=%q\n", *chaosSeed, *chaosSpec)
	}

	cfg := labd.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		CacheDir:       *cacheDir,
		DefaultTimeout: *timeout,
		Parallelism:    *parallelism,
		Chaos:          chaos,
	}
	if *trace {
		cfg.Tracer = obs.NewTracer(obs.Config{
			Capacity: *traceCap,
			SlowestK: *traceSlow,
			Seed:     *traceSeed,
		})
		cfg.SLO = obs.NewSLO(obs.SLOConfig{
			LatencyThreshold: *sloLatency,
			LatencyTarget:    *sloTarget,
			ErrorTarget:      *sloErrTgt,
		})
	}
	if *joinSeeds != "" && *fleetID == "" {
		fmt.Fprintln(os.Stderr, "gclabd: -join requires -fleet")
		os.Exit(2)
	}

	// Fleet wiring order matters: the router must exist before the
	// daemon (it is the daemon's peer cache tier), and the daemon must
	// attach back to the router (it serves the router's local shard).
	var router *fleet.Router
	var peers map[string]string
	// leaveCh fires when a graceful leave has fully drained; the main
	// loop then shuts the HTTP server down and exits.
	leaveCh := make(chan struct{}, 1)
	if *peerSpec != "" || *joinSeeds != "" {
		if *peerSpec != "" {
			var err error
			if peers, err = parsePeers(*peerSpec); err != nil {
				fmt.Fprintln(os.Stderr, "gclabd:", err)
				os.Exit(2)
			}
		} else {
			// A pure joiner boots alone: the join snapshot brings the
			// membership, gossip brings the ring.
			if *advertise == "" {
				fmt.Fprintln(os.Stderr, "gclabd: -join without -peers requires -advertise")
				os.Exit(2)
			}
			peers = map[string]string{*fleetID: strings.TrimRight(*advertise, "/")}
		}
		router, err = fleet.New(fleet.Config{
			Self:       *fleetID,
			Nodes:      peers,
			Vnodes:     *vnodes,
			LoadFactor: *loadFac,
			Chaos:      chaos,
			AfterLeave: func() {
				select {
				case leaveCh <- struct{}{}:
				default:
				}
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "gclabd:", err)
			os.Exit(2)
		}
		cfg.NodeID = *fleetID
		if *fleetID != "" {
			cfg.Peers = router
		}
	} else if *fleetID != "" {
		fmt.Fprintln(os.Stderr, "gclabd: -fleet requires -peers")
		os.Exit(2)
	}

	var srv *labd.Server
	if *peerSpec == "" || *fleetID != "" {
		var err error
		srv, err = labd.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gclabd:", err)
			os.Exit(1)
		}
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "gclabd: disk cache at %s (%d entries warm)\n",
				*cacheDir, srv.DiskCacheEntries())
		}
	}

	if router != nil && srv != nil {
		router.SetLocal(srv)
	}

	// The gossiper owns the fleet view and pushes every placement and
	// liveness change into the router via SetMembership. A standalone
	// router gossips under a name of its own and never announces.
	if router != nil {
		self, adv := *fleetID, strings.TrimRight(*advertise, "/")
		if adv == "" {
			adv = peers[self]
		}
		if self == "" {
			self = "router@" + *addr
			if adv == "" {
				adv = "http://" + *addr
			}
		}
		gcfg := gossip.Config{
			Self:           self,
			URL:            adv,
			Peers:          peers,
			Joining:        *joinSeeds != "" || *fleetID == "",
			Interval:       *gossipTick,
			SuspectTimeout: *suspectTO,
			Chaos:          chaos,
			OnUpdate:       router.SetMembership,
		}
		if srv != nil {
			gcfg.Rec = srv.Recorder()
		}
		g, err := gossip.New(gcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gclabd:", err)
			os.Exit(2)
		}
		router.AttachGossip(g)
		if *joinSeeds == "" {
			// Name the -peers view by gossip's content-derived epoch from
			// boot, so a node restarted into a fleet that has changed
			// since reports the epoch its peers do.
			epoch, urls := g.Memberlist().Placement()
			router.SetMembership(epoch, urls, nil)
		}
	}

	var handler http.Handler
	switch {
	case router != nil && srv != nil:
		handler = router.Handler()
		fmt.Fprintf(os.Stderr, "gclabd: fleet node %q over %d peers\n",
			*fleetID, router.Ring().Len())
	case router != nil:
		handler = router.Handler()
		fmt.Fprintf(os.Stderr, "gclabd: standalone fleet router over %d nodes\n",
			router.Ring().Len())
	default:
		handler = srv.Handler()
	}
	hs := &http.Server{Addr: *addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "gclabd: listening on %s\n", *addr)

	if router != nil {
		router.Gossip().Start()
		if *joinSeeds != "" {
			// Join in the background — the listener is already up to
			// answer gossip, and traffic routes here only after the
			// warm-up completes and the node announces itself.
			seeds := strings.Split(*joinSeeds, ",")
			for i := range seeds {
				seeds[i] = strings.TrimRight(strings.TrimSpace(seeds[i]), "/")
			}
			go func() {
				jctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
				defer cancel()
				if err := router.JoinAndWarm(jctx, seeds); err != nil {
					fmt.Fprintln(os.Stderr, "gclabd:", err)
					return
				}
				fmt.Fprintf(os.Stderr, "gclabd: joined fleet (epoch %d, %d nodes)\n",
					router.Epoch(), router.Ring().Len())
			}()
		}
	}

	left := false
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "gclabd:", err)
		os.Exit(1)
	case <-leaveCh:
		// POST /v1/fleet/leave already broadcast the departure, handed
		// the cache arc off and drained the daemon; only the HTTP server
		// remains.
		left = true
		fmt.Fprintln(os.Stderr, "gclabd: left fleet, shutting down")
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "gclabd: draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if srv != nil && router != nil && !left {
		// A fleet node turns a SIGTERM into a graceful leave: broadcast,
		// hand the cache arc to successors, drain — peers re-ring around
		// this node instead of having to detect its death.
		if err := router.Leave(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "gclabd: leave:", err)
		} else {
			left = true // Leave already drained the daemon
		}
	}
	// Stop intake first (connections finish their in-flight responses),
	// then wait for the scheduler to empty.
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gclabd: http shutdown:", err)
	}
	if router != nil {
		router.Close() // stops the gossiper
	}
	if srv != nil && !left {
		if err := srv.Drain(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "gclabd: drain:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, "gclabd: drained cleanly")
}
