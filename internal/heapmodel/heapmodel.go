// Package heapmodel models the HotSpot generational heap layout and its
// occupancy accounting.
//
// All HotSpot collectors studied in the paper are generational (§2): a
// young generation split into an eden and two survivor semi-spaces, and an
// old generation. Allocation bump-allocates in eden (through per-thread
// TLABs when enabled); objects that survive enough minor collections are
// promoted to the old generation. G1 overlays the same logical generations
// onto fixed-size regions.
//
// This package tracks byte-level occupancy and layout geometry only.
// Lifetimes live in internal/demography and collection costs in
// internal/gcmodel — keeping the three orthogonal mirrors how the real VM
// separates policy, demographics and mechanism.
package heapmodel

import (
	"errors"
	"fmt"

	"jvmgc/internal/machine"
)

// Geometry describes the static layout of a generational heap.
type Geometry struct {
	Heap          machine.Bytes // total committed heap (min = max, as in §3.1)
	Young         machine.Bytes // young generation (eden + both survivors)
	SurvivorRatio int           // eden/survivor ratio; HotSpot default 8
}

// DefaultSurvivorRatio is HotSpot's -XX:SurvivorRatio default.
const DefaultSurvivorRatio = 8

// Validate reports whether the geometry is consistent.
func (g Geometry) Validate() error {
	switch {
	case g.Heap <= 0:
		return errors.New("heapmodel: heap size must be positive")
	case g.Young <= 0:
		return errors.New("heapmodel: young size must be positive")
	case g.Young > g.Heap:
		return fmt.Errorf("heapmodel: young %v exceeds heap %v", g.Young, g.Heap)
	case g.SurvivorRatio < 1:
		return errors.New("heapmodel: survivor ratio must be >= 1")
	default:
		return nil
	}
}

// Survivor returns the size of one survivor semi-space:
// young / (ratio + 2).
func (g Geometry) Survivor() machine.Bytes {
	return g.Young / machine.Bytes(g.SurvivorRatio+2)
}

// Eden returns the eden size: young minus both survivor spaces.
func (g Geometry) Eden() machine.Bytes { return g.Young - 2*g.Survivor() }

// Old returns the old-generation size.
func (g Geometry) Old() machine.Bytes { return g.Heap - g.Young }

// WithYoung returns a copy of the geometry with a different young size,
// clamped to [1 MB, heap].
func (g Geometry) WithYoung(young machine.Bytes) Geometry {
	if young < machine.MB {
		young = machine.MB
	}
	if young > g.Heap {
		young = g.Heap
	}
	g.Young = young
	return g
}

// G1RegionSize returns the region size G1 would choose for this heap:
// heap/2048 rounded down to a power of two, clamped to [1 MB, 32 MB].
func (g Geometry) G1RegionSize() machine.Bytes {
	target := g.Heap / 2048
	size := machine.MB
	for size*2 <= target && size < 32*machine.MB {
		size *= 2
	}
	return size
}

// G1Regions returns the number of regions the heap divides into.
func (g Geometry) G1Regions() int {
	return int(g.Heap / g.G1RegionSize())
}

// Heap tracks the dynamic occupancy of a generational heap. All mutation
// goes through methods so invariants (no space over capacity, no negative
// occupancy) hold at every step; violations panic because they are
// simulation bugs, not recoverable conditions.
type Heap struct {
	geo Geometry

	edenUsed     machine.Bytes
	survivorUsed machine.Bytes // occupancy of the "from" survivor space
	oldUsed      machine.Bytes

	// oldFreeFragmented is the portion of free old space unusable for
	// promotion due to free-list fragmentation. Only CMS (non-compacting)
	// accrues it; compacting collectors reset it to zero.
	oldFreeFragmented machine.Bytes
}

// NewHeap returns an empty heap with the given geometry. It panics if the
// geometry is invalid.
func NewHeap(geo Geometry) *Heap {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	return &Heap{geo: geo}
}

// Geometry returns the heap's layout.
func (h *Heap) Geometry() Geometry { return h.geo }

// Resize installs a new geometry (used by adaptive size policies). Current
// occupancies are preserved; it panics if they no longer fit.
func (h *Heap) Resize(geo Geometry) {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	if h.edenUsed > geo.Eden() || h.survivorUsed > geo.Survivor() || h.oldUsed > geo.Old() {
		panic(fmt.Sprintf("heapmodel: resize to %+v would orphan live data (eden %v, surv %v, old %v)",
			geo, h.edenUsed, h.survivorUsed, h.oldUsed))
	}
	h.geo = geo
}

// EdenUsed returns current eden occupancy.
func (h *Heap) EdenUsed() machine.Bytes { return h.edenUsed }

// EdenFree returns remaining eden capacity.
func (h *Heap) EdenFree() machine.Bytes { return h.geo.Eden() - h.edenUsed }

// SurvivorUsed returns occupancy of the active survivor space.
func (h *Heap) SurvivorUsed() machine.Bytes { return h.survivorUsed }

// OldUsed returns old-generation occupancy.
func (h *Heap) OldUsed() machine.Bytes { return h.oldUsed }

// OldFree returns old-generation space usable for promotion: capacity
// minus occupancy minus the fragmented free portion.
func (h *Heap) OldFree() machine.Bytes {
	free := h.geo.Old() - h.oldUsed - h.oldFreeFragmented
	if free < 0 {
		free = 0
	}
	return free
}

// OldOccupancy returns old used as a fraction of old capacity, in [0, 1].
// A heap with no old generation (young == heap) reports 1.
func (h *Heap) OldOccupancy() float64 {
	old := h.geo.Old()
	if old <= 0 {
		return 1
	}
	return float64(h.oldUsed) / float64(old)
}

// HeapUsed returns total occupancy across generations.
func (h *Heap) HeapUsed() machine.Bytes { return h.edenUsed + h.survivorUsed + h.oldUsed }

// AllocateEden consumes n bytes of eden. It returns the number of bytes
// actually accepted, which is less than n when eden fills. n must be
// non-negative.
func (h *Heap) AllocateEden(n machine.Bytes) machine.Bytes {
	if n < 0 {
		panic("heapmodel: negative allocation")
	}
	free := h.EdenFree()
	if n > free {
		n = free
	}
	h.edenUsed += n
	return n
}

// MinorResult describes the outcome of applying a minor collection to the
// occupancy model.
type MinorResult struct {
	Collected machine.Bytes // eden + survivor bytes examined
	Survived  machine.Bytes // bytes that stayed in young (to-space)
	Promoted  machine.Bytes // bytes moved to old
	Failed    machine.Bytes // promotion bytes that did not fit in old
}

// ApplyMinor applies the occupancy effects of a minor collection: eden and
// from-survivor are emptied; survived bytes land in the to-survivor space
// (overflow promotes); promoted bytes move to old (overflow is reported as
// Failed — a promotion failure, which the caller escalates to a full GC).
//
// survived and promoted are demographic inputs computed by the caller;
// their sum must not exceed current young occupancy.
func (h *Heap) ApplyMinor(survived, promoted machine.Bytes) MinorResult {
	h.checkMinorVolumes(survived, promoted)
	return h.applyMinor(survived, promoted)
}

// ApplyMinorAdaptive applies a minor collection under an adaptive survivor
// size policy (Parallel/ParallelOld ergonomics, and G1's on-demand
// survivor regions): before placing survivors, the survivor spaces are
// resized — the effective SurvivorRatio is lowered, shrinking eden — so
// that up to a third of the young generation can survive without
// premature promotion. When the surviving cohort shrinks again, the ratio
// relaxes back toward the default.
func (h *Heap) ApplyMinorAdaptive(survived, promoted machine.Bytes) MinorResult {
	h.checkMinorVolumes(survived, promoted)
	// Hard adaptive bound: survivors beyond young/3 promote regardless.
	if max := h.geo.Young / 3; survived > max {
		promoted += survived - max
		survived = max
	}
	// Retarget the ratio so the survivor space just fits the cohort,
	// bounded by [1, DefaultSurvivorRatio]. Eden empties in this same
	// operation, so shrinking it cannot orphan data.
	ratio := DefaultSurvivorRatio
	if survived > 0 {
		if r := int(h.geo.Young/survived) - 2; r < ratio {
			ratio = r
		}
		if ratio < 1 {
			ratio = 1
		}
	}
	h.geo.SurvivorRatio = ratio
	return h.applyMinor(survived, promoted)
}

func (h *Heap) checkMinorVolumes(survived, promoted machine.Bytes) {
	if survived < 0 || promoted < 0 {
		panic("heapmodel: negative minor GC volumes")
	}
	young := h.edenUsed + h.survivorUsed
	if survived+promoted > young {
		panic(fmt.Sprintf("heapmodel: survivors %v + promoted %v exceed young occupancy %v",
			survived, promoted, young))
	}
}

func (h *Heap) applyMinor(survived, promoted machine.Bytes) MinorResult {
	res := MinorResult{Collected: h.edenUsed + h.survivorUsed}

	// Survivor-space overflow promotes directly (as in HotSpot).
	if cap := h.geo.Survivor(); survived > cap {
		promoted += survived - cap
		survived = cap
	}

	free := h.OldFree()
	if promoted > free {
		res.Failed = promoted - free
		promoted = free
	}

	h.edenUsed = 0
	h.survivorUsed = survived
	h.oldUsed += promoted
	res.Survived = survived
	res.Promoted = promoted
	return res
}

// ApplyFull applies a full collection: the whole heap is collected down to
// liveOld bytes in the old generation and liveYoung bytes in survivor
// space. A compacting full collection also clears fragmentation.
//
// The returned overflow is the live volume that did not fit anywhere —
// when it is positive the collection failed to make room and a real VM
// would throw OutOfMemoryError; the caller decides how to surface that.
func (h *Heap) ApplyFull(liveYoung, liveOld machine.Bytes, compacting bool) (overflow machine.Bytes) {
	if liveYoung < 0 || liveOld < 0 {
		panic("heapmodel: negative live volumes")
	}
	if cap := h.geo.Survivor(); liveYoung > cap {
		liveOld += liveYoung - cap
		liveYoung = cap
	}
	if cap := h.geo.Old(); liveOld > cap {
		overflow = liveOld - cap
		liveOld = cap
	}
	h.edenUsed = 0
	h.survivorUsed = liveYoung
	h.oldUsed = liveOld
	if compacting {
		h.oldFreeFragmented = 0
	}
	return overflow
}

// FreeOld releases n bytes from the old generation (concurrent sweep,
// mixed collections, or application-level frees such as a memtable flush).
// When fragmenting is true (CMS sweep), a fraction of the freed space
// becomes fragmented free-list space rather than usable space.
func (h *Heap) FreeOld(n machine.Bytes, fragmentFrac float64) {
	if n < 0 {
		panic("heapmodel: negative old free")
	}
	if n > h.oldUsed {
		n = h.oldUsed
	}
	h.oldUsed -= n
	if fragmentFrac > 0 {
		frag := machine.Bytes(float64(n) * fragmentFrac)
		h.oldFreeFragmented += frag
		if max := h.geo.Old() - h.oldUsed; h.oldFreeFragmented > max {
			h.oldFreeFragmented = max
		}
	}
}

// AddOld places n bytes directly into the old generation (humongous
// allocations, or replayed long-lived state). It returns the bytes
// accepted.
func (h *Heap) AddOld(n machine.Bytes) machine.Bytes {
	if n < 0 {
		panic("heapmodel: negative old allocation")
	}
	if free := h.OldFree(); n > free {
		n = free
	}
	h.oldUsed += n
	return n
}
