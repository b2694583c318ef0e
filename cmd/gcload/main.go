// Command gcload drives the labd daemon or a fleet with a
// deterministic, coordinated-omission-safe load generator and reports
// the throughput/latency curve, locating the saturation knee — the
// highest offered rate at which the p99 SLO holds with zero failures.
//
// Two targets:
//
//	-url       an already-running daemon or fleet router, over HTTP
//	-inproc N  an N-node in-process fleet on loopback HTTP, built and
//	           torn down by gcload itself (default, N=1)
//
// Open-loop mode (default) draws Poisson arrivals from -seed and
// measures every latency from the request's intended start, so a
// stalled service is charged for the backlog it caused; -mode closed
// runs the classic worker-pool generator for contrast.
//
// Examples:
//
//	gcload -inproc 3 -rate-start 500 -rate-step 500 -rate-max 5000
//	gcload -url http://127.0.0.1:8372 -rate 2000 -duration 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"jvmgc/internal/fleet"
	"jvmgc/internal/labd"
	"jvmgc/internal/loadgen"
)

func main() {
	var (
		url      = flag.String("url", "", "target an external daemon/fleet at this base URL")
		inproc   = flag.Int("inproc", 1, "nodes in the self-hosted in-process fleet (when -url is empty)")
		mode     = flag.String("mode", "open", "pacing: open (CO-safe, intended-start latency) or closed")
		rate     = flag.Float64("rate", 0, "fixed offered rate (req/s); 0 sweeps for the knee instead")
		rateLo   = flag.Float64("rate-start", 500, "sweep: first offered rate (req/s)")
		rateStep = flag.Float64("rate-step", 500, "sweep: rate increment (req/s)")
		rateHi   = flag.Float64("rate-max", 8000, "sweep: last offered rate (req/s)")
		stepDur  = flag.Duration("duration", 2*time.Second, "offered-load window per step")
		sloP99   = flag.Duration("slo-p99", 20*time.Millisecond, "p99 latency objective")
		seed     = flag.Uint64("seed", 42, "arrival-schedule seed (step k derives seed+k)")
		workers  = flag.Int("workers", 64, "in-flight request bound (open) / pool size (closed)")
		specs    = flag.Int("specs", 8, "distinct job specs cycled through the run")
		specDur  = flag.Float64("spec-duration", 5, "simulated seconds per job spec")
		ci       = flag.Bool("ci", false, "smoke assertions: zero failed requests, sweep terminates")
	)
	flag.Parse()

	m := loadgen.OpenLoop
	if *mode == "closed" {
		m = loadgen.ClosedLoop
	} else if *mode != "open" {
		fmt.Fprintf(os.Stderr, "gcload: unknown -mode %q\n", *mode)
		os.Exit(2)
	}
	opts := loadgen.Options{Mode: m, Workers: *workers}

	base, label := *url, *url
	if base == "" {
		var shutdown func()
		var err error
		if base, shutdown, err = startFleet(*inproc, *specs, *specDur); err != nil {
			fatal(err)
		}
		defer shutdown()
		label = fmt.Sprintf("inproc:%d", *inproc)
	}
	tgt, err := loadgen.NewHTTPTarget(base, jobSpecs(*specs, *specDur), nil)
	if err != nil {
		fatal(err)
	}
	run := func(sched loadgen.Schedule) (*loadgen.Result, error) {
		return loadgen.Run(context.Background(), sched, tgt, opts)
	}

	fmt.Printf("gcload: target=%s mode=%s seed=%d specs=%d slo-p99=%s\n",
		label, m, *seed, *specs, *sloP99)

	if *rate > 0 {
		sched := loadgen.Poisson(*rate, *stepDur, *seed)
		res, err := run(sched)
		if err != nil {
			fatal(err)
		}
		sw := &loadgen.Sweep{}
		sw.Points = append(sw.Points, loadgen.Point(*rate, res, sloP99.Seconds()))
		fmt.Print(sw.Table())
		if *ci && res.Failed > 0 {
			fatal(fmt.Errorf("%d failed requests", res.Failed))
		}
		return
	}

	sw, err := loadgen.FindKnee(loadgen.SweepConfig{
		Start: *rateLo, Step: *rateStep, Max: *rateHi,
		SLOP99:       sloP99.Seconds(),
		StepDuration: *stepDur,
		Seed:         *seed,
	}, run)
	if err != nil {
		fatal(err)
	}
	fmt.Print(sw.Table())
	if sw.Knee > 0 {
		fmt.Printf("knee: %.0f req/s (max sustained rate with p99 <= %s and zero failures)\n",
			sw.Knee, *sloP99)
	} else {
		fmt.Println("knee: none (no step met the SLO)")
	}
	if *ci {
		for _, p := range sw.Points {
			if p.Failed > 0 {
				fatal(fmt.Errorf("rate %.0f: %d failed requests", p.Rate, p.Failed))
			}
		}
		fmt.Println("ci: ok (sweep terminated, zero failed requests)")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcload:", err)
	os.Exit(1)
}

// jobSpecs builds the cycled spec set: identical shape, distinct seeds,
// so each is an independent cache entry and the steady state exercises
// the zero-allocation cache-hit path.
func jobSpecs(n int, durationSec float64) []labd.JobSpec {
	out := make([]labd.JobSpec, n)
	for i := range out {
		out[i] = labd.JobSpec{
			Kind:             labd.KindSimulate,
			Collector:        "ParallelOld",
			HeapBytes:        2 << 30,
			Threads:          8,
			AllocBytesPerSec: 150e6,
			DurationSeconds:  durationSec,
			Seed:             uint64(i) + 1,
		}
	}
	return out
}

// startFleet boots an n-node fleet on loopback HTTP — listeners first
// so every node knows the full membership before any router is built —
// and primes each spec once so the sweep measures the steady state.
// Returns the first node's base URL and a shutdown func.
func startFleet(n, specs int, specDur float64) (string, func(), error) {
	if n < 1 {
		n = 1
	}
	listeners := make([]net.Listener, n)
	nodes := make(map[string]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		listeners[i] = l
		nodes[fmt.Sprintf("n%d", i)] = "http://" + l.Addr().String()
	}
	servers := make([]*http.Server, n)
	daemons := make([]*labd.Server, n)
	for i := 0; i < n; i++ {
		self := fmt.Sprintf("n%d", i)
		var handler http.Handler
		if n == 1 {
			srv, err := labd.New(labd.Config{QueueDepth: 1 << 16, CacheEntries: 1024})
			if err != nil {
				return "", nil, err
			}
			daemons[i] = srv
			handler = srv.Handler()
		} else {
			rt, err := fleet.New(fleet.Config{Self: self, Nodes: nodes})
			if err != nil {
				return "", nil, err
			}
			srv, err := labd.New(labd.Config{
				QueueDepth: 1 << 16, CacheEntries: 1024, NodeID: self, Peers: rt,
			})
			if err != nil {
				return "", nil, err
			}
			rt.SetLocal(srv)
			daemons[i] = srv
			handler = rt.Handler()
		}
		servers[i] = &http.Server{Handler: handler}
		go servers[i].Serve(listeners[i]) //nolint:errcheck
	}
	base := nodes["n0"]
	// Prime: submit each spec once so every step after the first request
	// per spec is a cache hit somewhere in the fleet.
	tgt, err := loadgen.NewHTTPTarget(base, jobSpecs(specs, specDur), nil)
	if err != nil {
		return "", nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < specs; i++ {
		if err := tgt.Do(ctx, i); err != nil {
			return "", nil, fmt.Errorf("prime spec %d: %w", i, err)
		}
	}
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, hs := range servers {
			_ = hs.Shutdown(ctx)
		}
		for _, d := range daemons {
			if d != nil {
				_ = d.Drain(ctx)
			}
		}
	}
	return base, shutdown, nil
}
