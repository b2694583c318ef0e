// Package advisor turns the laboratory into a tuning tool: given a
// workload description and a service-level objective, it sweeps the
// collectors and young-generation sizes in simulation and ranks the
// configurations — the experiment the paper's §3 runs by hand, packaged
// as a recommendation engine.
package advisor

import (
	"fmt"
	"sort"

	"jvmgc/internal/collector"
	"jvmgc/internal/demography"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// SLO is the service-level objective a configuration must meet.
type SLO struct {
	// MaxPause bounds the worst stop-the-world pause (0 = unbounded).
	MaxPause simtime.Duration
	// MaxPauseFraction bounds total pause time over wall time
	// (0 = unbounded).
	MaxPauseFraction float64
}

// Workload describes the service to tune for.
type Workload struct {
	Threads   int
	AllocRate float64 // bytes/second
	Profile   demography.Profile
}

// Request is one advisory query.
type Request struct {
	Machine  *machine.Machine
	Heap     machine.Bytes
	Workload Workload
	SLO      SLO
	// Collectors restricts the candidates (default: all six).
	Collectors []string
	// YoungSizes restricts the candidate young sizes (default: heap/8,
	// heap/4, heap/3, heap/2).
	YoungSizes []machine.Bytes
	// Duration is the simulated evaluation window (default 5 minutes).
	Duration simtime.Duration
	Seed     uint64
	// Parallelism bounds the worker pool evaluating candidates
	// concurrently; 0 selects GOMAXPROCS. Every candidate is an
	// independent simulation with its own JVM, so the ranking is
	// identical at any parallelism.
	Parallelism int
}

func (r Request) withDefaults() (Request, error) {
	if r.Machine == nil {
		r.Machine = machine.New(machine.PaperTestbed())
	}
	if r.Heap <= 0 {
		return r, fmt.Errorf("advisor: heap size required")
	}
	if r.Workload.Threads <= 0 {
		r.Workload.Threads = r.Machine.Topo.Cores()
	}
	if r.Workload.AllocRate <= 0 {
		return r, fmt.Errorf("advisor: allocation rate required")
	}
	if err := r.Workload.Profile.Validate(); err != nil {
		return r, err
	}
	if len(r.Collectors) == 0 {
		r.Collectors = collector.Names()
	}
	if len(r.YoungSizes) == 0 {
		r.YoungSizes = []machine.Bytes{r.Heap / 8, r.Heap / 4, r.Heap / 3, r.Heap / 2}
	}
	if r.Duration <= 0 {
		r.Duration = 5 * simtime.Minute
	}
	return r, nil
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Collector string
	Young     machine.Bytes
	// Measured over the evaluation window:
	WorstPause    simtime.Duration
	TotalPause    simtime.Duration
	PauseFraction float64
	FullGCs       int
	OutOfMemory   bool
	// MeetsSLO marks candidates inside the objective.
	MeetsSLO bool
}

// Recommendation is the ranked outcome of an advisory query.
type Recommendation struct {
	// Candidates holds every evaluated configuration, best first:
	// SLO-meeting candidates ranked by pause fraction (throughput),
	// then the rest ranked by worst pause.
	Candidates []Candidate
}

// Best returns the top candidate and whether it meets the SLO.
func (r Recommendation) Best() (Candidate, bool) {
	if len(r.Candidates) == 0 {
		return Candidate{}, false
	}
	c := r.Candidates[0]
	return c, c.MeetsSLO
}

// Advise evaluates every (collector, young size) candidate in simulation
// and ranks them against the SLO. Candidates are independent simulations
// and run on a worker pool bounded by Request.Parallelism; results land
// by candidate index, so the ranking is deterministic regardless of
// completion order.
func Advise(req Request) (Recommendation, error) {
	req, err := req.withDefaults()
	if err != nil {
		return Recommendation{}, err
	}
	type cand struct {
		gcName string
		young  machine.Bytes
	}
	var cands []cand
	for _, gcName := range req.Collectors {
		// Validate the collector name up front so the pool only sees
		// runnable candidates.
		if _, err := collector.New(gcName, collector.Config{Machine: req.Machine}); err != nil {
			return Recommendation{}, err
		}
		for _, young := range req.YoungSizes {
			if young <= 0 || young > req.Heap {
				continue
			}
			cands = append(cands, cand{gcName, young})
		}
	}
	results := make([]Candidate, len(cands))
	err = forEach(req.Parallelism, len(cands), func(i int) error {
		gcName, young := cands[i].gcName, cands[i].young
		col, err := collector.New(gcName, collector.Config{Machine: req.Machine})
		if err != nil {
			return err
		}
		j := jvm.New(jvm.Config{
			Machine:   req.Machine,
			Collector: col,
			Geometry: heapmodel.Geometry{
				Heap: req.Heap, Young: young,
				SurvivorRatio: heapmodel.DefaultSurvivorRatio,
			},
			YoungExplicit: true,
			Seed:          req.Seed,
		}, jvm.Workload{
			Threads:   req.Workload.Threads,
			AllocRate: req.Workload.AllocRate,
			Profile:   req.Workload.Profile,
		})
		j.RunFor(req.Duration)

		log := j.Log()
		_, full := log.CountPauses()
		c := Candidate{
			Collector:  gcName,
			Young:      young,
			WorstPause: log.MaxPause(),
			TotalPause: log.TotalPause(),
			FullGCs:    full,
		}
		c.PauseFraction = float64(c.TotalPause) / float64(req.Duration)
		_, _, c.OutOfMemory = j.OutOfMemory()
		c.MeetsSLO = !c.OutOfMemory &&
			(req.SLO.MaxPause <= 0 || c.WorstPause <= req.SLO.MaxPause) &&
			(req.SLO.MaxPauseFraction <= 0 || c.PauseFraction <= req.SLO.MaxPauseFraction)
		results[i] = c
		return nil
	})
	if err != nil {
		return Recommendation{}, err
	}
	out := Recommendation{Candidates: results}
	sort.SliceStable(out.Candidates, func(i, j int) bool {
		a, b := out.Candidates[i], out.Candidates[j]
		if a.MeetsSLO != b.MeetsSLO {
			return a.MeetsSLO
		}
		if a.MeetsSLO {
			// Among compliant candidates, maximize throughput.
			return a.PauseFraction < b.PauseFraction
		}
		// Among violators, minimize the worst pause.
		return a.WorstPause < b.WorstPause
	})
	return out, nil
}
