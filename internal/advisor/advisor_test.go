package advisor

import (
	"testing"

	"jvmgc/internal/demography"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

func baseRequest() Request {
	return Request{
		Heap: 8 * machine.GB,
		Workload: Workload{
			Threads:   32,
			AllocRate: 400e6,
			Profile: demography.Profile{
				ShortFrac: 0.92, MeanShort: 120 * simtime.Millisecond,
				MediumFrac: 0.05, MeanMedium: 2 * simtime.Second,
			},
		},
		SLO:  SLO{MaxPause: 400 * simtime.Millisecond, MaxPauseFraction: 0.05},
		Seed: 4,
	}
}

func TestAdviseRanksCandidates(t *testing.T) {
	rec, err := Advise(baseRequest())
	if err != nil {
		t.Fatal(err)
	}
	// 6 collectors x 4 young sizes.
	if len(rec.Candidates) != 24 {
		t.Fatalf("candidates = %d", len(rec.Candidates))
	}
	// Ranking: compliant candidates first, ordered by pause fraction.
	seenViolator := false
	for i, c := range rec.Candidates {
		if !c.MeetsSLO {
			seenViolator = true
		} else if seenViolator {
			t.Fatalf("compliant candidate at %d after a violator", i)
		}
	}
	for i := 1; i < len(rec.Candidates); i++ {
		a, b := rec.Candidates[i-1], rec.Candidates[i]
		if a.MeetsSLO && b.MeetsSLO && a.PauseFraction > b.PauseFraction {
			t.Fatalf("compliant ordering broken at %d", i)
		}
	}
	best, ok := rec.Best()
	if !ok {
		t.Fatal("no compliant configuration found")
	}
	if best.WorstPause > 300*simtime.Millisecond {
		t.Errorf("best violates pause bound: %v", best.WorstPause)
	}
}

func TestAdviseImpossibleSLO(t *testing.T) {
	req := baseRequest()
	req.SLO = SLO{MaxPause: simtime.Microsecond}
	rec, err := Advise(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.Best(); ok {
		t.Error("microsecond SLO reported as met")
	}
	// Violators are ranked by worst pause.
	for i := 1; i < len(rec.Candidates); i++ {
		if rec.Candidates[i-1].WorstPause > rec.Candidates[i].WorstPause {
			t.Fatal("violator ordering broken")
		}
	}
}

func TestAdviseFlagsOOM(t *testing.T) {
	req := baseRequest()
	req.Heap = 256 * machine.MB
	req.YoungSizes = []machine.Bytes{64 * machine.MB}
	req.Workload.Profile = demography.Profile{ShortFrac: 0.4, MeanShort: simtime.Second}
	req.Workload.AllocRate = 400e6 // 240MB/s immortal into a 256MB heap
	rec, err := Advise(req)
	if err != nil {
		t.Fatal(err)
	}
	oom := 0
	for _, c := range rec.Candidates {
		if c.OutOfMemory {
			oom++
			if c.MeetsSLO {
				t.Error("OOM candidate marked compliant")
			}
		}
	}
	if oom == 0 {
		t.Error("no candidate flagged OOM")
	}
}

func TestAdviseValidation(t *testing.T) {
	if _, err := Advise(Request{}); err == nil {
		t.Error("missing heap accepted")
	}
	req := baseRequest()
	req.Workload.AllocRate = 0
	if _, err := Advise(req); err == nil {
		t.Error("missing alloc rate accepted")
	}
	req = baseRequest()
	req.Collectors = []string{"ZGC"}
	if _, err := Advise(req); err == nil {
		t.Error("unknown collector accepted")
	}
}

func TestAdviseRestrictedCandidates(t *testing.T) {
	req := baseRequest()
	req.Collectors = []string{"CMS", "G1"}
	req.YoungSizes = []machine.Bytes{machine.GB}
	rec, err := Advise(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(rec.Candidates))
	}
}
