package heapmodel

import (
	"testing"
	"testing/quick"

	"jvmgc/internal/machine"
	"jvmgc/internal/xrand"
)

func baseGeo() Geometry {
	return Geometry{Heap: 16 * machine.GB, Young: 4 * machine.GB, SurvivorRatio: 8}
}

func TestGeometryPartition(t *testing.T) {
	g := baseGeo()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.Eden() + 2*g.Survivor(); got != g.Young {
		t.Errorf("eden + 2*survivor = %v, want %v", got, g.Young)
	}
	if got := g.Old() + g.Young; got != g.Heap {
		t.Errorf("old + young = %v, want %v", got, g.Heap)
	}
	// SurvivorRatio 8 => survivor = young/10.
	if got := g.Survivor(); got != g.Young/10 {
		t.Errorf("survivor = %v, want young/10", got)
	}
}

func TestGeometryValidateRejects(t *testing.T) {
	bad := []Geometry{
		{Heap: 0, Young: machine.MB, SurvivorRatio: 8},
		{Heap: machine.GB, Young: 0, SurvivorRatio: 8},
		{Heap: machine.GB, Young: 2 * machine.GB, SurvivorRatio: 8},
		{Heap: machine.GB, Young: machine.MB, SurvivorRatio: 0},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWithYoungClamps(t *testing.T) {
	g := baseGeo()
	if got := g.WithYoung(100 * machine.GB).Young; got != g.Heap {
		t.Errorf("young clamped to %v, want heap", got)
	}
	if got := g.WithYoung(0).Young; got != machine.MB {
		t.Errorf("young clamped to %v, want 1MB", got)
	}
	if got := g.WithYoung(2 * machine.GB).Young; got != 2*machine.GB {
		t.Errorf("young = %v", got)
	}
}

func TestG1RegionSize(t *testing.T) {
	cases := []struct {
		heap machine.Bytes
		want machine.Bytes
	}{
		{1 * machine.GB, 1 * machine.MB},   // 1G/2048 = 512K -> clamp 1MB
		{16 * machine.GB, 8 * machine.MB},  // 16G/2048 = 8MB
		{64 * machine.GB, 32 * machine.MB}, // 64G/2048 = 32MB
		{250 * machine.MB, 1 * machine.MB},
	}
	for _, c := range cases {
		g := Geometry{Heap: c.heap, Young: c.heap / 4, SurvivorRatio: 8}
		if got := g.G1RegionSize(); got != c.want {
			t.Errorf("G1RegionSize(%v) = %v, want %v", c.heap, got, c.want)
		}
	}
}

func TestG1Regions(t *testing.T) {
	g := Geometry{Heap: 16 * machine.GB, Young: 4 * machine.GB, SurvivorRatio: 8}
	if got := g.G1Regions(); got != 2048 {
		t.Errorf("G1Regions = %d, want 2048", got)
	}
}

func TestNewHeapPanicsOnInvalidGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHeap(Geometry{})
}

func TestAllocateEden(t *testing.T) {
	h := NewHeap(baseGeo())
	eden := h.Geometry().Eden()
	got := h.AllocateEden(machine.GB)
	if got != machine.GB {
		t.Errorf("accepted %v", got)
	}
	if h.EdenUsed() != machine.GB || h.EdenFree() != eden-machine.GB {
		t.Errorf("eden used %v free %v", h.EdenUsed(), h.EdenFree())
	}
	// Over-allocation truncates at capacity.
	got = h.AllocateEden(2 * eden)
	if got != eden-machine.GB {
		t.Errorf("overflow accepted %v, want %v", got, eden-machine.GB)
	}
	if h.EdenFree() != 0 {
		t.Errorf("eden free = %v after fill", h.EdenFree())
	}
}

func TestAllocateEdenNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewHeap(baseGeo()).AllocateEden(-1)
}

func TestApplyMinorBasic(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AllocateEden(2 * machine.GB)
	res := h.ApplyMinor(100*machine.MB, 50*machine.MB)
	if res.Collected != 2*machine.GB {
		t.Errorf("collected %v", res.Collected)
	}
	if res.Survived != 100*machine.MB || res.Promoted != 50*machine.MB || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	if h.EdenUsed() != 0 {
		t.Errorf("eden not emptied: %v", h.EdenUsed())
	}
	if h.SurvivorUsed() != 100*machine.MB {
		t.Errorf("survivor = %v", h.SurvivorUsed())
	}
	if h.OldUsed() != 50*machine.MB {
		t.Errorf("old = %v", h.OldUsed())
	}
}

func TestApplyMinorSurvivorOverflowPromotes(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AllocateEden(3 * machine.GB)
	surv := h.Geometry().Survivor()
	res := h.ApplyMinor(surv+200*machine.MB, 0)
	if res.Survived != surv {
		t.Errorf("survived %v, want survivor capacity %v", res.Survived, surv)
	}
	if res.Promoted != 200*machine.MB {
		t.Errorf("promoted %v, want overflow 200MB", res.Promoted)
	}
}

func TestApplyMinorPromotionFailure(t *testing.T) {
	geo := Geometry{Heap: 2 * machine.GB, Young: 1 * machine.GB, SurvivorRatio: 8}
	h := NewHeap(geo)
	h.AddOld(900 * machine.MB) // old nearly full
	h.AllocateEden(700 * machine.MB)
	res := h.ApplyMinor(0, 400*machine.MB)
	wantFit := geo.Old() - 900*machine.MB
	if res.Promoted != wantFit {
		t.Errorf("promoted %v, want %v", res.Promoted, wantFit)
	}
	if res.Failed != 400*machine.MB-wantFit {
		t.Errorf("failed %v", res.Failed)
	}
	if h.OldFree() != 0 {
		t.Errorf("old free = %v", h.OldFree())
	}
}

func TestApplyMinorPanicsOnExcessVolumes(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AllocateEden(machine.MB)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h.ApplyMinor(2*machine.MB, 0)
}

func TestApplyFull(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AllocateEden(2 * machine.GB)
	h.AddOld(5 * machine.GB)
	h.FreeOld(machine.GB, 0.5) // fragment some free space
	if h.Fragmented() == 0 {
		t.Fatal("setup: no fragmentation")
	}
	h.ApplyFull(50*machine.MB, 3*machine.GB, true)
	if h.EdenUsed() != 0 || h.SurvivorUsed() != 50*machine.MB || h.OldUsed() != 3*machine.GB {
		t.Errorf("post-full state: eden %v surv %v old %v", h.EdenUsed(), h.SurvivorUsed(), h.OldUsed())
	}
	if h.Fragmented() != 0 {
		t.Errorf("compacting full GC left fragmentation %v", h.Fragmented())
	}
}

func TestApplyFullNonCompactingKeepsFragmentation(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AddOld(5 * machine.GB)
	h.FreeOld(machine.GB, 0.5)
	frag := h.Fragmented()
	h.ApplyFull(0, 2*machine.GB, false)
	if h.Fragmented() != frag {
		t.Errorf("non-compacting full GC changed fragmentation: %v -> %v", frag, h.Fragmented())
	}
}

func TestApplyFullClampsAtOldCapacity(t *testing.T) {
	h := NewHeap(baseGeo())
	h.ApplyFull(0, h.Geometry().Old()+machine.GB, true)
	if h.OldUsed() != h.Geometry().Old() {
		t.Errorf("old used %v, want capacity", h.OldUsed())
	}
}

func TestFreeOldAndFragmentation(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AddOld(4 * machine.GB)
	h.FreeOld(2*machine.GB, 0.25)
	if h.OldUsed() != 2*machine.GB {
		t.Errorf("old used %v", h.OldUsed())
	}
	if h.Fragmented() != 512*machine.MB {
		t.Errorf("fragmented %v, want 512MB", h.Fragmented())
	}
	// Fragmented space reduces usable free space.
	want := h.Geometry().Old() - 2*machine.GB - 512*machine.MB
	if h.OldFree() != want {
		t.Errorf("old free %v, want %v", h.OldFree(), want)
	}
}

func TestFreeOldClampsAtZero(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AddOld(machine.GB)
	h.FreeOld(5*machine.GB, 0)
	if h.OldUsed() != 0 {
		t.Errorf("old used %v", h.OldUsed())
	}
}

func TestAddOldTruncatesAtCapacity(t *testing.T) {
	h := NewHeap(baseGeo())
	old := h.Geometry().Old()
	got := h.AddOld(old + machine.GB)
	if got != old {
		t.Errorf("accepted %v, want %v", got, old)
	}
	if h.OldFree() != 0 {
		t.Errorf("old free %v", h.OldFree())
	}
}

func TestOldOccupancy(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AddOld(h.Geometry().Old() / 2)
	if occ := h.OldOccupancy(); occ < 0.49 || occ > 0.51 {
		t.Errorf("occupancy %v, want ~0.5", occ)
	}
	full := NewHeap(Geometry{Heap: machine.GB, Young: machine.GB, SurvivorRatio: 8})
	if full.OldOccupancy() != 1 {
		t.Error("degenerate old generation should report occupancy 1")
	}
}

func TestResize(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AllocateEden(machine.GB)
	h.Resize(baseGeo().WithYoung(8 * machine.GB))
	if h.Geometry().Young != 8*machine.GB {
		t.Errorf("young after resize %v", h.Geometry().Young)
	}
	// Shrinking below current occupancy panics.
	h2 := NewHeap(baseGeo())
	h2.AddOld(10 * machine.GB)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	h2.Resize(baseGeo().WithYoung(15 * machine.GB)) // old shrinks to 1GB < 10GB used
}

func TestQuickOccupancyInvariants(t *testing.T) {
	// Random sequences of operations never violate capacity or sign
	// invariants.
	f := func(seed uint64, ops []uint8) bool {
		r := xrand.New(seed)
		h := NewHeap(baseGeo())
		if len(ops) > 300 {
			ops = ops[:300]
		}
		for _, op := range ops {
			switch op % 5 {
			case 0:
				h.AllocateEden(machine.Bytes(r.Uint64n(uint64(2 * machine.GB))))
			case 1:
				young := h.EdenUsed() + h.SurvivorUsed()
				if young > 0 {
					s := machine.Bytes(r.Uint64n(uint64(young) + 1))
					p := machine.Bytes(r.Uint64n(uint64(young-s) + 1))
					h.ApplyMinor(s, p)
				}
			case 2:
				h.AddOld(machine.Bytes(r.Uint64n(uint64(4 * machine.GB))))
			case 3:
				h.FreeOld(machine.Bytes(r.Uint64n(uint64(4*machine.GB))), r.Float64()*0.5)
			case 4:
				h.ApplyFull(0, h.OldUsed()/2, r.Bool(0.5))
			}
			geo := h.Geometry()
			if h.EdenUsed() < 0 || h.EdenUsed() > geo.Eden() {
				return false
			}
			if h.SurvivorUsed() < 0 || h.SurvivorUsed() > geo.Survivor() {
				return false
			}
			if h.OldUsed() < 0 || h.OldUsed() > geo.Old() {
				return false
			}
			if h.OldFree() < 0 || h.Fragmented() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestApplyMinorAdaptiveWidensSurvivors(t *testing.T) {
	h := NewHeap(baseGeo()) // young 4GB, survivor 400MB at ratio 8
	h.AllocateEden(3 * machine.GB)
	// 1GB survives: fixed sizing would overflow 600MB into old; adaptive
	// widens the survivor space instead.
	res := h.ApplyMinorAdaptive(machine.GB, 0)
	if res.Promoted != 0 {
		t.Errorf("adaptive policy promoted %v prematurely", res.Promoted)
	}
	if res.Survived != machine.GB {
		t.Errorf("survived %v", res.Survived)
	}
	if h.Geometry().SurvivorRatio >= DefaultSurvivorRatio {
		t.Errorf("ratio did not shrink: %d", h.Geometry().SurvivorRatio)
	}
	if h.SurvivorUsed() != machine.GB || h.Geometry().Survivor() < machine.GB {
		t.Errorf("survivor %v of %v", h.SurvivorUsed(), h.Geometry().Survivor())
	}
}

func TestApplyMinorAdaptiveHardBound(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AllocateEden(3 * machine.GB)
	// Beyond young/3 the adaptive policy promotes regardless.
	res := h.ApplyMinorAdaptive(2*machine.GB, 0)
	max := h.Geometry().Young / 3
	if res.Survived > max {
		t.Errorf("survived %v exceeds young/3 = %v", res.Survived, max)
	}
	if res.Promoted != 2*machine.GB-res.Survived {
		t.Errorf("promoted %v", res.Promoted)
	}
}

func TestApplyMinorAdaptiveRelaxesBack(t *testing.T) {
	h := NewHeap(baseGeo())
	h.AllocateEden(3 * machine.GB)
	h.ApplyMinorAdaptive(machine.GB, 0) // ratio shrinks
	tight := h.Geometry().SurvivorRatio
	// A tiny surviving cohort lets the ratio relax to the default.
	h.AllocateEden(machine.GB)
	h.ApplyMinorAdaptive(10*machine.MB, 0)
	if got := h.Geometry().SurvivorRatio; got != DefaultSurvivorRatio {
		t.Errorf("ratio = %d after small cohort (was %d), want default", got, tight)
	}
}

func TestApplyFullOverflowReported(t *testing.T) {
	geo := Geometry{Heap: 2 * machine.GB, Young: machine.GB, SurvivorRatio: 8}
	h := NewHeap(geo)
	// Live data exceeding the old generation by 512MB.
	over := h.ApplyFull(0, geo.Old()+512*machine.MB, true)
	if over != 512*machine.MB {
		t.Errorf("overflow = %v, want 512MB", over)
	}
	if h.OldUsed() != geo.Old() {
		t.Errorf("old used %v, want clamped at capacity", h.OldUsed())
	}
	// Fitting live data reports zero overflow.
	if over := h.ApplyFull(0, machine.MB, true); over != 0 {
		t.Errorf("overflow = %v on fitting data", over)
	}
}

// Fragmented returns the old-generation free space currently lost to
// fragmentation.
func (h *Heap) Fragmented() machine.Bytes { return h.oldFreeFragmented }
