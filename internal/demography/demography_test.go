package demography

import (
	"math"
	"testing"
	"testing/quick"

	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

func stdProfile() Profile {
	return Profile{
		ShortFrac:  0.85,
		MeanShort:  200 * simtime.Millisecond,
		MediumFrac: 0.10,
		MeanMedium: 10 * simtime.Second,
	}
}

func TestProfileValidate(t *testing.T) {
	if err := stdProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []Profile{
		{ShortFrac: -0.1},
		{ShortFrac: 0.6, MediumFrac: 0.6},
		{ShortFrac: 0.5, MeanShort: 0},
		{MediumFrac: 0.5, MeanMedium: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestLongFrac(t *testing.T) {
	p := stdProfile()
	if got := p.LongFrac(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("LongFrac = %v, want 0.05", got)
	}
}

func TestAllocateAndYoungLiveDecay(t *testing.T) {
	tk := NewTracker(stdProfile())
	t0 := simtime.Time(0)
	tk.Allocate(t0, machine.GB)
	if got := tk.YoungLive(t0); got != machine.GB {
		t.Errorf("live at birth = %v, want 1GB", got)
	}
	// After 5 short lifetimes, the short component is nearly gone; medium
	// has barely decayed; long untouched.
	t1 := t0.Add(simtime.Second)
	live := float64(tk.YoungLive(t1)) / float64(machine.GB)
	want := 0.85*math.Exp(-5) + 0.10*math.Exp(-0.1) + 0.05
	if math.Abs(live-want) > 0.002 {
		t.Errorf("live fraction after 1s = %v, want %v", live, want)
	}
	// Live bytes decay monotonically.
	prev := tk.YoungLive(t0)
	for s := 1; s <= 20; s++ {
		cur := tk.YoungLive(t0.Add(simtime.Duration(s) * simtime.Second))
		if cur > prev {
			t.Fatalf("live increased: %v -> %v at %ds", prev, cur, s)
		}
		prev = cur
	}
	// But never below the long-lived floor.
	floor := machine.GB / 20
	far := tk.YoungLive(t0.Add(simtime.Hour))
	if far < floor-machine.Bytes(1) {
		t.Errorf("live %v fell below long floor %v", far, floor)
	}
}

func TestAllocateSpreadDiesMoreThanLumpAtEnd(t *testing.T) {
	// Bytes spread over an interval must show more death at interval end
	// than bytes lumped at the end, and less than bytes lumped at the
	// start.
	p := stdProfile()
	end := simtime.Time(10 * simtime.Second)

	lumpEnd := NewTracker(p)
	lumpEnd.Allocate(end, machine.GB)
	spread := NewTracker(p)
	spread.AllocateSpread(0, end, machine.GB, 8)
	lumpStart := NewTracker(p)
	lumpStart.Allocate(0, machine.GB)

	le, sp, ls := lumpEnd.YoungLive(end), spread.YoungLive(end), lumpStart.YoungLive(end)
	if !(ls < sp && sp < le) {
		t.Errorf("ordering violated: start %v, spread %v, end %v", ls, sp, le)
	}
}

func TestAllocateSpreadConservesBytes(t *testing.T) {
	tk := NewTracker(stdProfile())
	tk.AllocateSpread(0, simtime.Time(simtime.Second), 1000000007, 7)
	// At the moment of allocation each sub-cohort is whole; summing their
	// at-birth amounts must equal the total. MinorGC's `before` uses the
	// at-birth value, so run one and check conservation.
	out := tk.MinorGC(simtime.Time(simtime.Second), 15, machine.GB)
	total := out.Survived + out.Promoted + out.Dead
	if diff := int64(total) - 1000000007; diff < -8 || diff > 8 {
		t.Errorf("conservation off by %d bytes", diff)
	}
}

func TestMinorGCSurvivalAndPromotionByAge(t *testing.T) {
	p := Profile{ShortFrac: 0, MediumFrac: 0} // pure long-lived bytes
	tk := NewTracker(p)
	tk.Allocate(0, 100*machine.MB)
	// tenure 2: the cohort survives GC 1 and 2 in young, promotes at GC 3.
	for gc := 1; gc <= 2; gc++ {
		out := tk.MinorGC(simtime.Time(gc)*simtime.Time(simtime.Second), 2, machine.GB)
		if out.Survived != 100*machine.MB || out.Promoted != 0 {
			t.Fatalf("gc %d: %+v", gc, out)
		}
	}
	out := tk.MinorGC(simtime.Time(3*simtime.Second), 2, machine.GB)
	if out.Promoted != 100*machine.MB || out.Survived != 0 {
		t.Fatalf("gc 3: %+v", out)
	}
	if tk.OldLive(simtime.Time(3*simtime.Second)) != 100*machine.MB {
		t.Errorf("old live = %v", tk.OldLive(simtime.Time(3*simtime.Second)))
	}
}

func TestMinorGCSurvivorOverflowPromotesOldestFirst(t *testing.T) {
	p := Profile{ShortFrac: 0, MediumFrac: 0}
	tk := NewTracker(p)
	tk.Allocate(0, 300*machine.MB)                            // older cohort
	tk.Allocate(simtime.Time(simtime.Second), 200*machine.MB) // younger cohort
	// Survivor capacity fits only the younger cohort.
	out := tk.MinorGC(simtime.Time(2*simtime.Second), 15, 250*machine.MB)
	if out.Promoted != 300*machine.MB {
		t.Errorf("promoted %v, want the older 300MB cohort", out.Promoted)
	}
	if out.Survived != 200*machine.MB {
		t.Errorf("survived %v", out.Survived)
	}
}

func TestMinorGCDeadAccounting(t *testing.T) {
	p := Profile{ShortFrac: 1, MeanShort: simtime.Second}
	tk := NewTracker(p)
	tk.Allocate(0, machine.GB)
	out := tk.MinorGC(simtime.Time(10*simtime.Second), 15, machine.GB)
	// After 10 lifetimes essentially everything (1 - e^-10) is dead.
	if out.Survived > 64*machine.KB || out.Promoted != 0 {
		t.Errorf("outcome %+v", out)
	}
	if out.Dead < machine.GB-64*machine.KB || out.Dead > machine.GB {
		t.Errorf("dead = %v", out.Dead)
	}
	// A second collection after 40 total lifetimes drops the residue.
	out = tk.MinorGC(simtime.Time(40*simtime.Second), 15, machine.GB)
	if out.Survived != 0 || tk.YoungCohorts() != 0 {
		t.Errorf("residue survived: %+v, cohorts %d", out, tk.YoungCohorts())
	}
}

func TestMemorylessRebaseIsExact(t *testing.T) {
	// Observing the tracker mid-way (forcing a rebase via MinorGC with an
	// infinite survivor space and tenure) must not change later live
	// values.
	p := stdProfile()
	direct := NewTracker(p)
	direct.Allocate(0, machine.GB)

	rebased := NewTracker(p)
	rebased.Allocate(0, machine.GB)
	rebased.MinorGC(simtime.Time(simtime.Second), 100, machine.GB*10)

	at := simtime.Time(3 * simtime.Second)
	a := float64(direct.YoungLive(at))
	b := float64(rebased.YoungLive(at))
	if math.Abs(a-b) > 1e3 { // within a KB on a GB
		t.Errorf("rebase drift: direct %v vs rebased %v", a, b)
	}
}

func TestYoungCohortCountBoundedByTenure(t *testing.T) {
	p := stdProfile()
	tk := NewTracker(p)
	now := simtime.Time(0)
	const tenure = 4
	for i := 0; i < 50; i++ {
		tk.Allocate(now, 10*machine.MB)
		now = now.Add(100 * simtime.Millisecond)
		tk.MinorGC(now, tenure, machine.GB)
		if got := tk.YoungCohorts(); got > tenure+1 {
			t.Fatalf("young cohorts = %d after GC %d, want <= %d", got, i, tenure+1)
		}
	}
}

func TestReleaseLong(t *testing.T) {
	p := Profile{ShortFrac: 0, MediumFrac: 0}
	tk := NewTracker(p)
	tk.Allocate(0, machine.GB)
	tk.MinorGC(simtime.Time(simtime.Second), 0, machine.GB) // promote all
	tk.ReleaseLong(0.75)
	got := tk.OldLive(simtime.Time(simtime.Second))
	if diff := int64(got) - int64(machine.GB)/4; diff < -2 || diff > 2 {
		t.Errorf("old live after release = %v, want 256MB", got)
	}
	// Clamping.
	tk.ReleaseLong(5)
	if tk.OldLive(simtime.Time(simtime.Second)) != 0 {
		t.Error("ReleaseLong(>1) did not clear long bytes")
	}
}

func TestPinnedLifecycle(t *testing.T) {
	tk := NewTracker(stdProfile())
	tk.AddPinned(2 * machine.GB)
	if tk.OldLive(0) != 2*machine.GB {
		t.Errorf("old live = %v", tk.OldLive(0))
	}
	// ReleaseLong must not touch pinned bytes.
	tk.ReleaseLong(1)
	if tk.OldLive(0) != 2*machine.GB {
		t.Error("ReleaseLong affected pinned bytes")
	}
}

func TestFullGCMovesYoungToOld(t *testing.T) {
	p := Profile{ShortFrac: 0.5, MeanShort: simtime.Second, MediumFrac: 0}
	tk := NewTracker(p)
	tk.Allocate(0, machine.GB)
	live := tk.FullGC(simtime.Time(10 * simtime.Second))
	// Short half dead after 10 lifetimes; long half promoted.
	if diff := int64(live) - int64(machine.GB)/2; diff < -1e5 || diff > 1e5 {
		t.Errorf("old live after full GC = %v, want ~512MB", live)
	}
	if tk.YoungCohorts() != 0 {
		t.Error("young not emptied by full GC")
	}
	if tk.OldCohorts() != 1 {
		t.Errorf("old cohorts = %d, want merged 1", tk.OldCohorts())
	}
}

func TestCollectOldPrunesDead(t *testing.T) {
	p := Profile{ShortFrac: 0, MediumFrac: 1, MeanMedium: simtime.Second}
	tk := NewTracker(p)
	tk.Allocate(0, machine.GB)
	tk.MinorGC(simtime.Time(simtime.Millisecond), 0, machine.GB) // promote ~all
	liveEarly := tk.OldLive(simtime.Time(simtime.Millisecond))
	if liveEarly < 900*machine.MB {
		t.Fatalf("setup: old live = %v", liveEarly)
	}
	live := tk.CollectOld(simtime.Time(20 * simtime.Second))
	if live > machine.MB {
		t.Errorf("old live after 20 lifetimes = %v, want ~0", live)
	}
}

func TestOldLiveMonotoneDecreasingWithoutAllocation(t *testing.T) {
	tk := NewTracker(stdProfile())
	tk.Allocate(0, machine.GB)
	tk.MinorGC(simtime.Time(simtime.Millisecond), 0, 0) // force everything old
	prev := tk.OldLive(0)
	for s := 1; s < 30; s++ {
		cur := tk.OldLive(simtime.Time(s) * simtime.Time(simtime.Second))
		if cur > prev {
			t.Fatalf("old live increased at %ds: %v -> %v", s, prev, cur)
		}
		prev = cur
	}
}

func TestQuickMinorGCConservation(t *testing.T) {
	// survived + promoted <= bytes allocated, and all quantities
	// non-negative, for arbitrary allocation patterns.
	f := func(amounts []uint32, tenure uint8, survCap uint32) bool {
		tk := NewTracker(stdProfile())
		if len(amounts) > 50 {
			amounts = amounts[:50]
		}
		now := simtime.Time(0)
		var allocated machine.Bytes
		for _, a := range amounts {
			n := machine.Bytes(a % (64 * 1024 * 1024))
			tk.Allocate(now, n)
			allocated += n
			now = now.Add(50 * simtime.Millisecond)
		}
		out := tk.MinorGC(now, int(tenure%16), machine.Bytes(survCap))
		if out.Survived < 0 || out.Promoted < 0 || out.Dead < 0 {
			return false
		}
		return out.Survived+out.Promoted+out.Dead <= allocated+machine.Bytes(len(amounts)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickSurvivorCapRespected(t *testing.T) {
	f := func(amounts []uint32, survCap uint32) bool {
		tk := NewTracker(Profile{ShortFrac: 0, MediumFrac: 0}) // immortal bytes
		if len(amounts) > 30 {
			amounts = amounts[:30]
		}
		now := simtime.Time(0)
		for _, a := range amounts {
			tk.Allocate(now, machine.Bytes(a%(16*1024*1024)))
			now = now.Add(simtime.Millisecond)
		}
		out := tk.MinorGC(now, 100, machine.Bytes(survCap))
		return out.Survived <= machine.Bytes(survCap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReleaseMedium(t *testing.T) {
	p := Profile{ShortFrac: 0, MediumFrac: 1, MeanMedium: simtime.Hour}
	tk := NewTracker(p)
	tk.Allocate(0, machine.GB)
	tk.MinorGC(simtime.Time(simtime.Second), 0, 0) // promote everything
	tk.ReleaseMedium(0.5)
	got := tk.OldLive(simtime.Time(simtime.Second))
	if diff := int64(got) - int64(machine.GB)/2; diff < -1e6 || diff > 1e6 {
		t.Errorf("old live after release = %v, want ~512MB", got)
	}
	// Clamping on both ends.
	tk.ReleaseMedium(-1) // no-op
	before := tk.OldLive(simtime.Time(simtime.Second))
	tk.ReleaseMedium(0)
	if tk.OldLive(simtime.Time(simtime.Second)) != before {
		t.Error("ReleaseMedium(0) changed live data")
	}
	tk.ReleaseMedium(9)
	if tk.OldLive(simtime.Time(simtime.Second)) != 0 {
		t.Error("ReleaseMedium(>1) did not clear medium bytes")
	}
}

func TestReleaseMediumLeavesOtherComponents(t *testing.T) {
	p := Profile{ShortFrac: 0.3, MeanShort: simtime.Hour, MediumFrac: 0.3, MeanMedium: simtime.Hour}
	tk := NewTracker(p)
	tk.Allocate(0, machine.GB)
	tk.ReleaseMedium(1)
	// Short (0.3) and long (0.4) components survive in young.
	want := machine.GB * 7 / 10
	got := tk.YoungLive(0)
	if diff := int64(got) - int64(want); diff < -1e6 || diff > 1e6 {
		t.Errorf("young live = %v, want ~%v", got, want)
	}
}

// YoungCohorts returns the number of live young cohorts.
func (tk *Tracker) YoungCohorts() int { return len(tk.young) }

// OldCohorts returns the number of old cohorts.
func (tk *Tracker) OldCohorts() int { return len(tk.old) }
