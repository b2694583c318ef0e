package jvm

import (
	"jvmgc/internal/gclog"
	"jvmgc/internal/gcmodel"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// snapshot assembles the pricing context for the collector.
func (j *JVM) snapshot() gcmodel.Snapshot {
	return gcmodel.Snapshot{
		Machine:        j.mach,
		Geo:            j.heap.Geometry(),
		GCThreads:      j.cfg.GCThreads,
		OldUsed:        j.heap.OldUsed(),
		HeapUsed:       j.heap.HeapUsed(),
		OldOccupancy:   j.heap.OldOccupancy(),
		MutatorThreads: j.w.Threads,
		Rng:            j.rng,
	}
}

// survivorCap returns the demographic survivor capacity for the current
// policy. Adaptive collectors grow survivor spaces to fit the surviving
// cohort, so they pass a generous cap and resize geometry afterwards;
// fixed collectors live with the configured SurvivorRatio.
func (j *JVM) survivorCap() machine.Bytes {
	if j.col.Survivors() == gcmodel.AdaptiveSurvivors {
		return j.heap.Geometry().Young / 3
	}
	return j.heap.Geometry().Survivor()
}

// beginPause freezes mutators for `d` starting now and logs the event.
func (j *JVM) beginPause(kind gclog.Kind, cause string, d simtime.Duration, before, after, promoted machine.Bytes) {
	now := j.clock.Now()
	j.log.Append(gclog.Event{
		Start:      now,
		Duration:   d,
		Kind:       kind,
		Collector:  j.col.Name(),
		Cause:      cause,
		HeapBefore: before,
		HeapAfter:  after,
		Promoted:   promoted,
	})
	end := now.Add(d)
	if end > j.resumeAt {
		j.resumeAt = end
	}
}

// minorGC performs a young collection (possibly upgraded to a mixed
// collection or carrying G1's initial mark), escalating to a full
// collection on promotion failure.
func (j *JVM) minorGC(cause string) {
	now := j.clock.Now()
	j.advance(now)

	ttsp := j.recordTTSP(j.cfg.Safepoint.TTSP(j.w.Threads, j.rng))
	before := j.heap.HeapUsed()

	out := j.tracker.MinorGC(now, j.col.TenuringThreshold(), j.survivorCap())
	var res heapmodel.MinorResult
	if j.col.Survivors() == gcmodel.AdaptiveSurvivors {
		res = j.heap.ApplyMinorAdaptive(out.Survived, out.Promoted)
	} else {
		res = j.heap.ApplyMinor(out.Survived, out.Promoted)
	}

	s := j.snapshot()
	s.Survived = res.Survived
	s.Promoted = res.Promoted

	kind := gclog.PauseMinor
	var pause simtime.Duration
	var segs []pauseSegment

	switch {
	case j.phase == cycleMixed && j.mixedRemaining > 0:
		per := j.mixedReclaim / machine.Bytes(j.mixedRemaining)
		d := j.col.MixedPause(s, per)
		pause = ttsp + d
		if j.rec != nil {
			segs = []pauseSegment{{kind: gcmodel.PauseMixedGC, d: d, reclaim: per}}
		}
		j.heap.FreeOld(per, 0)
		j.mixedReclaim -= per
		j.mixedRemaining--
		if j.mixedRemaining == 0 {
			j.phase = cycleIdle
		}
		kind = gclog.PauseMixed
	case j.phase == cycleInitialMarkPending && j.col.Concurrent().Kind == gcmodel.G1Style:
		md := j.col.MinorPause(s)
		im := j.col.InitialMarkPause(s)
		pause = ttsp + md + im
		if j.rec != nil {
			segs = []pauseSegment{
				{kind: gcmodel.PauseYoung, d: md},
				{label: "initial-mark", d: im},
			}
		}
		kind = gclog.PauseInitialMark
		j.startMarking()
	default:
		d := j.col.MinorPause(s)
		pause = ttsp + d
		if j.rec != nil {
			segs = []pauseSegment{{kind: gcmodel.PauseYoung, d: d}}
		}
	}

	if res.Failed > 0 {
		// Promotion failed mid-collection: HotSpot escalates the pause to
		// a full collection. The attempted minor work is part of the bill.
		failCause := gclog.CausePromotionFailure
		if j.col.Concurrent().Kind == gcmodel.G1Style {
			failCause = gclog.CauseEvacuationFailure
		} else if j.phase == cycleMarking || j.phase == cycleSweeping {
			failCause = gclog.CauseConcurrentModeFailure
		}
		if j.rec != nil {
			switch failCause {
			case gclog.CausePromotionFailure:
				j.ctr.failPromotion.Add(1)
			case gclog.CauseEvacuationFailure:
				j.ctr.failEvacuation.Add(1)
			case gclog.CauseConcurrentModeFailure:
				j.ctr.failConcMode.Add(1)
			}
		}
		j.fullGCAt(failCause, pause, before)
		return
	}

	after := j.heap.HeapUsed()
	if j.rec != nil {
		switch kind {
		case gclog.PauseMixed:
			j.ctr.collMixed.Add(1)
		case gclog.PauseInitialMark:
			j.ctr.collInitialMark.Add(1)
		default:
			j.ctr.collYoung.Add(1)
		}
		j.ctr.promotedBytes.Add(int64(res.Promoted))
		j.tracePause(kind, cause, now, pause, ttsp, before, after, res.Promoted, s, segs)
	}
	j.beginPause(kind, cause, pause, before, after, res.Promoted)
	j.afterCollection(pause)
}

// SystemGC forces a full collection at the current instant, as DaCapo
// does between iterations.
func (j *JVM) SystemGC() {
	j.advance(j.clock.Now())
	j.fullGCAt(gclog.CauseSystemGC, 0, j.heap.HeapUsed())
}

// fullGCAt performs a full collection, adding `extra` pause time from a
// failed collection attempt that escalated here.
func (j *JVM) fullGCAt(cause string, extra simtime.Duration, before machine.Bytes) {
	now := j.clock.Now()
	ttsp := j.recordTTSP(j.cfg.Safepoint.TTSP(j.w.Threads, j.rng))

	liveYoung := j.tracker.YoungLive(now)
	liveOld := j.tracker.OldLive(now)
	s := j.snapshot()
	s.LiveYoung = liveYoung
	s.LiveOld = liveOld

	j.tracker.FullGC(now)
	overflow := j.heap.ApplyFull(0, liveYoung+liveOld, true)
	if heapShort := liveYoung + liveOld - j.heap.Geometry().Heap; overflow > 0 &&
		heapShort > 0 && j.oomBytes == 0 {
		// The live data does not fit the WHOLE heap even after compacting
		// everything (overflow beyond the old generation alone spills into
		// the young spaces, as a real mark-compact does): a real VM dies
		// with OutOfMemoryError here. The simulation records the condition
		// and carries on with a clamped heap so experiment sweeps can
		// report the failure instead of aborting mid-grid.
		j.oomAt = now
		j.oomBytes = heapShort
		if j.rec != nil {
			j.ctr.oomEvents.Add(1)
		}
	}

	// A full collection aborts any concurrent cycle.
	j.cancelCycle()

	fp := j.col.FullPause(s)
	pause := ttsp + extra + fp
	after := j.heap.HeapUsed()
	if j.rec != nil {
		j.ctr.collFull.Add(1)
		var segs []pauseSegment
		if extra > 0 {
			segs = append(segs, pauseSegment{label: "aborted-minor", d: extra})
		}
		segs = append(segs, pauseSegment{kind: gcmodel.PauseFullGC, d: fp})
		j.tracePause(gclog.PauseFull, cause, now, pause, ttsp, before, after, 0, s, segs)
	}
	j.beginPause(gclog.PauseFull, cause, pause, before, after, 0)
	j.afterCollection(pause)
}

// afterCollection runs the post-GC policy hooks: G1 young resizing,
// concurrent cycle triggering, and rescheduling of the next eden event.
func (j *JVM) afterCollection(pause simtime.Duration) {
	if j.g1Adaptive {
		j.resizeG1Young(pause)
	}
	j.maybeStartCycle()
	j.scheduleEden()
}

// resizeG1Young chases the pause target by scaling the young generation.
func (j *JVM) resizeG1Young(pause simtime.Duration) {
	pt, ok := j.col.(gcmodel.PauseTargeted)
	if !ok {
		return
	}
	target := pt.PauseTarget()
	if target <= 0 || pause <= 0 {
		return
	}
	ratio := float64(target) / float64(pause)
	// Move halfway (in the geometric sense) toward the implied size,
	// clamped to a 0.5x-2x step.
	step := ratio
	if step > 1 {
		step = 1 + (step-1)*0.5
		if step > 2 {
			step = 2
		}
	} else {
		step = 1 - (1-step)*0.5
		if step < 0.5 {
			step = 0.5
		}
	}
	geo := j.heap.Geometry()
	lo, hi := pt.YoungBounds()
	young := machine.Bytes(float64(geo.Young) * step)
	if min := machine.Bytes(float64(geo.Heap) * lo); young < min {
		young = min
	}
	if max := machine.Bytes(float64(geo.Heap) * hi); young > max {
		young = max
	}
	// Keep current occupancies legal: survivor must hold what it holds,
	// and the old generation must keep its data.
	if s := j.heap.SurvivorUsed(); s > 0 {
		need := s * machine.Bytes(geo.SurvivorRatio+2)
		if young < need {
			young = need
		}
	}
	if maxYoung := geo.Heap - j.heap.OldUsed(); young > maxYoung {
		young = maxYoung
	}
	if young < machine.MB {
		young = machine.MB
	}
	newGeo := geo.WithYoung(young)
	if newGeo.Young == geo.Young {
		return
	}
	if j.heap.EdenUsed() > newGeo.Eden() || j.heap.SurvivorUsed() > newGeo.Survivor() ||
		j.heap.OldUsed() > newGeo.Old() {
		return // would orphan data; skip this adjustment
	}
	j.heap.Resize(newGeo)
}

// maybeStartCycle arms a concurrent cycle when the collector's
// initiating-occupancy condition holds.
func (j *JVM) maybeStartCycle() {
	spec := j.col.Concurrent()
	if spec.Kind == gcmodel.NoConcurrent || j.phase != cycleIdle {
		return
	}
	switch spec.Kind {
	case gcmodel.CMSStyle:
		if j.heap.OldOccupancy() < spec.InitiatingOccupancy {
			return
		}
		j.phase = cycleInitialMarkPending
		// CMS schedules its own initial-mark pause promptly.
		j.cycleEvent = j.clock.Schedule(simtime.Time(max64(int64(j.clock.Now()), int64(j.resumeAt))), &j.hCMSIM)
	case gcmodel.G1Style:
		occ := float64(j.heap.HeapUsed()) / float64(j.heap.Geometry().Heap)
		if occ < spec.InitiatingOccupancy {
			return
		}
		// G1 piggybacks initial mark on the next young pause.
		j.phase = cycleInitialMarkPending
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// cmsInitialMark runs CMS's initial-mark pause and starts concurrent
// marking.
func (j *JVM) cmsInitialMark() {
	now := j.clock.Now()
	j.advance(now)
	s := j.snapshot()
	s.Survived = j.heap.EdenUsed() + j.heap.SurvivorUsed()
	ttsp := j.recordTTSP(j.cfg.Safepoint.TTSP(j.w.Threads, j.rng))
	im := j.col.InitialMarkPause(s)
	pause := ttsp + im
	if j.rec != nil {
		j.ctr.collInitialMark.Add(1)
		j.tracePause(gclog.PauseInitialMark, gclog.CauseOccupancyThreshold, now,
			pause, ttsp, j.heap.HeapUsed(), j.heap.HeapUsed(), 0, s,
			[]pauseSegment{{kind: gcmodel.PauseInitialMark, d: im}})
	}
	j.beginPause(gclog.PauseInitialMark, gclog.CauseOccupancyThreshold, pause,
		j.heap.HeapUsed(), j.heap.HeapUsed(), 0)
	j.startMarking()
	j.scheduleEden() // speed changed (cores stolen)
}

// startMarking begins the concurrent marking phase and schedules its
// completion.
func (j *JVM) startMarking() {
	now := j.clock.Now()
	j.phase = cycleMarking
	s := j.snapshot()
	s.LiveOld = j.tracker.OldLive(now)
	d := j.col.ConcurrentMarkSeconds(s)
	start := now
	if j.resumeAt > start {
		start = j.resumeAt
	}
	j.log.Append(gclog.Event{
		Start: now, Duration: d, Kind: gclog.ConcurrentMark,
		Collector: j.col.Name(), Cause: gclog.CauseOccupancyThreshold,
		HeapBefore: j.heap.HeapUsed(), HeapAfter: j.heap.HeapUsed(),
	})
	if j.rec != nil {
		j.ctr.concCycles.Add(1)
		j.traceConcurrent(gclog.ConcurrentMark, gclog.CauseOccupancyThreshold,
			now, d, j.heap.HeapUsed(), j.heap.HeapUsed())
	}
	j.cycleEvent = j.clock.Schedule(start.Add(d), &j.hMark)
}

// onCMSInitialMarkDue, onMarkingDone and onSweepDone are the pre-bound
// concurrent-cycle handlers. Each drops the cycle-event registration
// first: the kernel recycles fired events, so the handle is dead.
func (j *JVM) onCMSInitialMarkDue() {
	j.cycleEvent = nil
	j.cmsInitialMark()
}

func (j *JVM) onMarkingDone() {
	j.cycleEvent = nil
	j.remark()
}

func (j *JVM) onSweepDone() {
	j.cycleEvent = nil
	j.cmsSweepDone(j.sweepGarbage, j.sweepFragFrac)
}

// remark runs the remark pause and transitions to sweeping (CMS) or mixed
// collections (G1).
func (j *JVM) remark() {
	now := j.clock.Now()
	j.advance(now)
	ttsp := j.recordTTSP(j.cfg.Safepoint.TTSP(j.w.Threads, j.rng))

	liveOld := j.tracker.CollectOld(now)
	s := j.snapshot()
	s.LiveYoung = j.heap.EdenUsed() + j.heap.SurvivorUsed()
	s.LiveOld = liveOld

	rp := j.col.RemarkPause(s)
	pause := ttsp + rp
	if j.rec != nil {
		j.ctr.collRemark.Add(1)
		j.tracePause(gclog.PauseRemark, gclog.CauseOccupancyThreshold, now,
			pause, ttsp, j.heap.HeapUsed(), j.heap.HeapUsed(), 0, s,
			[]pauseSegment{{kind: gcmodel.PauseRemark, d: rp}})
	}
	j.beginPause(gclog.PauseRemark, gclog.CauseOccupancyThreshold, pause,
		j.heap.HeapUsed(), j.heap.HeapUsed(), 0)

	spec := j.col.Concurrent()
	switch spec.Kind {
	case gcmodel.CMSStyle:
		j.phase = cycleSweeping
		garbage := j.heap.OldUsed() - liveOld
		if garbage < 0 {
			garbage = 0
		}
		work := float64(j.heap.OldUsed()) * 0.04 // sweep factor over old span
		d := simtime.Seconds(j.mach.ParallelSeconds(work, spec.Threads))
		j.log.Append(gclog.Event{
			Start: j.clock.Now(), Duration: pause + d, Kind: gclog.ConcurrentSweep,
			Collector: j.col.Name(), Cause: gclog.CauseOccupancyThreshold,
			HeapBefore: j.heap.HeapUsed(),
		})
		if j.rec != nil {
			j.traceConcurrent(gclog.ConcurrentSweep, gclog.CauseOccupancyThreshold,
				j.clock.Now(), pause+d, j.heap.HeapUsed(), 0)
		}
		end := j.resumeAt.Add(d)
		j.sweepGarbage = garbage
		j.sweepFragFrac = spec.FragmentFrac
		j.cycleEvent = j.clock.Schedule(end, &j.hSweep)
	case gcmodel.G1Style:
		garbage := j.heap.OldUsed() - liveOld
		if garbage < 0 {
			garbage = 0
		}
		j.mixedReclaim = garbage
		j.mixedRemaining = spec.MixedTarget
		if j.mixedRemaining < 1 {
			j.mixedRemaining = 1
		}
		j.phase = cycleMixed
	}
	j.scheduleEden()
}

// cmsSweepDone frees the swept garbage (fragmenting part of it) and ends
// the cycle.
func (j *JVM) cmsSweepDone(garbage machine.Bytes, fragFrac float64) {
	j.advance(j.clock.Now())
	j.heap.FreeOld(garbage, fragFrac)
	j.phase = cycleIdle
	j.scheduleEden()
}

// cancelCycle aborts any in-flight concurrent cycle (a full collection
// supersedes it and compacts everything).
func (j *JVM) cancelCycle() {
	if j.cycleEvent != nil {
		j.clock.Cancel(j.cycleEvent)
		j.cycleEvent = nil
	}
	j.phase = cycleIdle
	j.mixedRemaining = 0
	j.mixedReclaim = 0
}
