package jvm

import (
	"jvmgc/internal/gclog"
	"jvmgc/internal/gcmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
)

// Flight-recorder emission. Everything in this file is read-only with
// respect to simulation state: no RNG draws, no mutator advances, no heap
// mutation. A run with a recorder attached is therefore byte-identical to
// the same run without one. Every emission site is guarded by a nil check
// before any argument is materialized, so the disabled path costs one
// branch.

// scheduleSampler arms the self-rescheduling time-series sampler. It only
// schedules anything when a recorder with a positive sample interval is
// attached, so the event queue of an uninstrumented JVM is unchanged.
func (j *JVM) scheduleSampler() {
	if j.rec == nil {
		return
	}
	iv := j.rec.SampleInterval()
	if iv <= 0 {
		return
	}
	j.clock.Schedule(j.clock.Now().Add(iv), &j.hSample)
}

// onSampleDue is the pre-bound self-rescheduling sampler handler.
func (j *JVM) onSampleDue() {
	j.sampleNow()
	j.scheduleSampler()
}

// sampleNow records one time-series point. Heap occupancy includes an
// estimate of allocation pending since the last materialization so the
// series ramps instead of stair-stepping, without mutating state.
func (j *JVM) sampleNow() {
	now := j.clock.Now()
	paused := j.resumeAt > now
	sp := j.speed()

	eden := j.heap.EdenUsed()
	if !paused {
		from := j.lastAdvance
		if j.resumeAt > from {
			from = j.resumeAt
		}
		if now > from {
			dt := now.Sub(from).Seconds()
			pend := machine.Bytes(j.w.AllocRate * (1 - j.w.HumongousFrac) * sp * dt)
			if cap := j.effectiveEden(); eden+pend > cap {
				pend = cap - eden
				if pend < 0 {
					pend = 0
				}
			}
			eden += pend
		}
	}

	cores := float64(j.mach.Topo.Cores())
	var gcCPU float64
	switch {
	case paused:
		gang := j.cfg.GCThreads
		if !j.col.ParallelYoung() {
			gang = 1
		}
		gcCPU = float64(gang) / cores
	case j.phase == cycleMarking || j.phase == cycleSweeping:
		gcCPU = float64(j.col.Concurrent().Threads) / cores
	}
	if gcCPU > 1 {
		gcCPU = 1
	}

	mutator := sp
	allocRate := j.w.AllocRate * sp
	if paused {
		mutator = 0
		allocRate = 0
	}
	var refill float64
	if j.cfg.TLAB.Enabled && j.cfg.TLAB.Size > 0 {
		refill = allocRate / float64(j.cfg.TLAB.Size)
	}

	j.rec.Sample(telemetry.Sample{
		At:             now,
		Eden:           eden,
		Survivor:       j.heap.SurvivorUsed(),
		Old:            j.heap.OldUsed(),
		Heap:           j.heap.HeapUsed() + (eden - j.heap.EdenUsed()),
		AllocRate:      allocRate,
		TLABRefillRate: refill,
		MutatorUtil:    mutator,
		GCCPU:          gcCPU,
		TTSP:           j.sp.Last(),
	})
}

// pauseSegment is one slice of a (possibly composite) pause for span
// emission: either a decomposable collection (kind is consulted on the
// collector's PhaseDecomposer) or a single labelled chunk.
type pauseSegment struct {
	kind    gcmodel.PauseKind
	label   string // non-empty: emit one child with this name, no decomposition
	d       simtime.Duration
	reclaim machine.Bytes
}

// tracePause emits the span tree of one stop-the-world pause: a parent
// span carrying the gclog event's attributes plus the pause's
// attribution (generation, threads, copied/promoted volumes, NUMA
// share), a TTSP child, and per-phase children tiling each segment's
// priced duration proportionally to the collector's phase weights.
func (j *JVM) tracePause(kind gclog.Kind, cause string, start simtime.Time,
	total, ttsp simtime.Duration, before, after, promoted machine.Bytes,
	s gcmodel.Snapshot, segs []pauseSegment) {
	if j.rec == nil {
		return
	}

	gang := s.GCThreads
	if gang <= 0 {
		gang = j.cfg.GCThreads
	}
	if !j.col.ParallelYoung() {
		gang = 1
	}

	parent := j.rec.Span(telemetry.TrackGC, kind.String(), start, total, 0,
		telemetry.Str(telemetry.AttrCause, cause),
		telemetry.Str(telemetry.AttrCollector, j.col.Name()),
		telemetry.ByteCount(telemetry.AttrHeapBefore, before),
		telemetry.ByteCount(telemetry.AttrHeapAfter, after),
		telemetry.ByteCount(telemetry.AttrPromoted, promoted),
		telemetry.Str("generation", generation(kind)),
		telemetry.Num("gc_threads", float64(gang)),
		telemetry.ByteCount("bytes_copied", s.Survived),
		telemetry.Num("numa_share", j.mach.NUMARemoteShare(gang)),
	)

	cursor := start
	j.rec.Span(telemetry.TrackGC, "ttsp", cursor, ttsp, parent)
	cursor = cursor.Add(ttsp)

	for _, seg := range segs {
		if seg.label != "" {
			j.rec.Span(telemetry.TrackGC, seg.label, cursor, seg.d, parent)
			cursor = cursor.Add(seg.d)
			continue
		}
		cursor = j.tracePhases(parent, cursor, seg, s)
	}
}

// tracePhases tiles one segment's duration across the collector's phase
// weights; the last phase absorbs rounding so child durations sum exactly
// to the segment.
func (j *JVM) tracePhases(parent telemetry.SpanID, cursor simtime.Time,
	seg pauseSegment, s gcmodel.Snapshot) simtime.Time {
	dec, ok := j.col.(gcmodel.PhaseDecomposer)
	var weights []gcmodel.PhaseWeight
	if ok {
		weights = dec.PausePhases(seg.kind, s, seg.reclaim)
	}
	totalW := 0.0
	for _, w := range weights {
		if w.Weight > 0 {
			totalW += w.Weight
		}
	}
	if len(weights) == 0 || totalW <= 0 {
		j.rec.Span(telemetry.TrackGC, "gc-work", cursor, seg.d, parent)
		return cursor.Add(seg.d)
	}
	remaining := seg.d
	for i, w := range weights {
		var d simtime.Duration
		if i == len(weights)-1 {
			d = remaining
		} else if w.Weight > 0 {
			d = simtime.Duration(float64(seg.d) * w.Weight / totalW)
			if d > remaining {
				d = remaining
			}
		}
		j.rec.Span(telemetry.TrackGC, w.Name, cursor, d, parent)
		cursor = cursor.Add(d)
		remaining -= d
	}
	return cursor
}

// traceConcurrent mirrors a concurrent cycle segment (mark, sweep) onto
// the concurrent track with the same attributes the gclog event carries.
func (j *JVM) traceConcurrent(kind gclog.Kind, cause string, start simtime.Time,
	d simtime.Duration, before, after machine.Bytes) {
	if j.rec == nil {
		return
	}
	j.rec.Span(telemetry.TrackConcurrent, kind.String(), start, d, 0,
		telemetry.Str(telemetry.AttrCause, cause),
		telemetry.Str(telemetry.AttrCollector, j.col.Name()),
		telemetry.ByteCount(telemetry.AttrHeapBefore, before),
		telemetry.ByteCount(telemetry.AttrHeapAfter, after),
		telemetry.Num("conc_threads", float64(j.col.Concurrent().Threads)),
	)
}

// generation names the part of the heap a pause kind collects.
func generation(kind gclog.Kind) string {
	switch kind {
	case gclog.PauseMinor:
		return "young"
	case gclog.PauseMixed:
		return "mixed"
	case gclog.PauseFull:
		return "whole"
	default:
		return "old"
	}
}
