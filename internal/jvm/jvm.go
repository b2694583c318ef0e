// Package jvm simulates an OpenJDK-8-style JVM executing a workload on a
// multicore machine: bump allocation through TLABs, eden exhaustion
// triggering minor collections, promotion, occupancy-triggered concurrent
// cycles, promotion-failure escalation to full collections, System.gc(),
// and pause-target-driven young sizing for G1.
//
// This is the paper's system under test. Mutators are modelled in
// aggregate: a workload declares its thread count, allocation rate and
// lifetime profile; the simulator advances mutator progress continuously
// between discrete GC events, freezing it during stop-the-world pauses
// and slowing it while concurrent GC threads steal cores or the
// allocation path gets more expensive (TLAB off, write barriers).
//
// Determinism: every stochastic choice flows from the seed in Config, so
// a simulation replays bit-identically.
package jvm

import (
	"fmt"

	"jvmgc/internal/demography"
	"jvmgc/internal/event"
	"jvmgc/internal/gclog"
	"jvmgc/internal/gcmodel"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/machine"
	"jvmgc/internal/safepoint"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/xrand"
)

// Workload describes the aggregate mutator behaviour the JVM executes.
type Workload struct {
	// Threads is the number of runnable application threads.
	Threads int
	// AllocRate is the young-generation allocation rate, in bytes per
	// second of full-speed mutator execution.
	AllocRate float64
	// Profile is the lifetime mixture of allocated bytes.
	Profile demography.Profile
	// TLABWaste overrides the TLAB retire-waste fraction when positive
	// (workloads with irregular allocation sizes waste more).
	TLABWaste float64
	// HumongousFrac is the fraction of allocated bytes in objects too
	// large for eden (G1: larger than half a region); they are placed
	// directly in the old generation and only an old-generation
	// collection reclaims them.
	HumongousFrac float64
}

// Validate reports whether the workload is well-formed.
func (w Workload) Validate() error {
	switch {
	case w.Threads < 1:
		return fmt.Errorf("jvm: workload needs >= 1 thread, got %d", w.Threads)
	case w.AllocRate < 0:
		return fmt.Errorf("jvm: negative allocation rate %v", w.AllocRate)
	case w.HumongousFrac < 0 || w.HumongousFrac > 1:
		return fmt.Errorf("jvm: humongous fraction %v outside [0,1]", w.HumongousFrac)
	default:
		return w.Profile.Validate()
	}
}

// Config parameterizes a JVM instance.
type Config struct {
	Machine   *machine.Machine
	Collector gcmodel.Collector
	Geometry  heapmodel.Geometry
	// YoungExplicit records that the young size was pinned on the
	// command line (-Xmn); it disables G1's adaptive young sizing.
	YoungExplicit bool
	TLAB          heapmodel.TLABConfig
	Alloc         heapmodel.AllocationModel
	Safepoint     safepoint.Model
	// GCThreads overrides the parallel GC gang size (0 = ergonomic).
	GCThreads int
	// Clock mounts the JVM on an externally owned event wheel instead of
	// a private one — the hook that lets a caller step several JVMs,
	// each on its own wheel, on parallel workers. The wheel must be
	// dedicated to this JVM and its driver: the JVM's handlers are not
	// goroutine-safe, and drivers sharing the wheel must schedule their
	// logic in the post band (event.SchedulePost) so the JVM's
	// same-instant events fire first, exactly as they do under the
	// sequential RunFor loop. Nil keeps a private wheel.
	Clock *event.Sim
	// Seed drives all randomness in this JVM.
	Seed uint64
	// Recorder, when non-nil, receives flight-recorder telemetry (GC
	// spans with phase children, heap/CPU time series, counters). A nil
	// recorder costs one pointer check per emission site and never
	// changes simulation results.
	Recorder *telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.Machine == nil {
		c.Machine = machine.New(machine.PaperTestbed())
	}
	if c.TLAB == (heapmodel.TLABConfig{}) {
		c.TLAB = heapmodel.DefaultTLAB()
	}
	if c.Alloc == (heapmodel.AllocationModel{}) {
		c.Alloc = heapmodel.DefaultAllocationModel()
	}
	if c.Safepoint == (safepoint.Model{}) {
		c.Safepoint = safepoint.Default()
	}
	if c.GCThreads <= 0 {
		c.GCThreads = c.Machine.DefaultGCThreads()
	}
	return c
}

// cyclePhase tracks where a concurrent cycle stands.
type cyclePhase int

const (
	cycleIdle cyclePhase = iota
	cycleInitialMarkPending
	cycleMarking
	cycleSweeping // CMS only
	cycleMixed    // G1 only
)

// JVM is one simulated virtual machine instance. It is not
// goroutine-safe.
type JVM struct {
	cfg  Config
	w    Workload
	mach *machine.Machine
	col  gcmodel.Collector

	clock   *event.Sim
	heap    *heapmodel.Heap
	tracker *demography.Tracker
	log     *gclog.Log
	rng     *xrand.Rand

	// Mutator progress state.
	lastAdvance simtime.Time
	resumeAt    simtime.Time // end of the current STW pause
	progress    float64      // accumulated ideal-seconds of mutator work
	allocCarry  float64      // fractional allocated bytes carried between advances

	// Concurrent cycle state.
	phase          cyclePhase
	cycleEvent     *event.Event
	mixedRemaining int
	mixedReclaim   machine.Bytes

	// Scheduled eden-exhaustion event.
	edenEvent *event.Event

	// backgroundCPU is the number of cores consumed by non-mutator
	// application work (storage-engine compaction, flush writers); it
	// competes with mutators exactly like concurrent GC threads do.
	backgroundCPU int

	// g1Young is the current adaptive young size (G1 without -Xmn).
	g1Adaptive bool

	// oomAt records the first instant a full collection could not fit the
	// live data (a real VM throws OutOfMemoryError there); zero when the
	// heap always sufficed.
	oomAt    simtime.Time
	oomBytes machine.Bytes

	// Safepoint accounting (-XX:+PrintSafepointStatistics equivalent).
	sp safepoint.Stats

	// rec receives flight-recorder telemetry; nil when disabled.
	rec *telemetry.Recorder
	ctr jvmCounters

	// speedBase folds the run-invariant factors of the mutator speed
	// multiplier (write-barrier tax, allocation-path tax); it changes only
	// when the allocation rate does. speed() multiplies in the per-instant
	// core-stealing factor.
	speedBase float64

	// Pre-bound event handlers, embedded by value so converting their
	// addresses to event.Handler never allocates: steady-state scheduling
	// is closure-free.
	hEden   edenHandler
	hCMSIM  cmsInitialMarkHandler
	hMark   markDoneHandler
	hSweep  sweepDoneHandler
	hMarker progressMarkerHandler
	hSample sampleHandler

	// Parameters of the pending hSweep invocation (set when the sweep is
	// scheduled; a full collection cancelling the cycle leaves them stale,
	// which is harmless because the handler never runs then).
	sweepGarbage  machine.Bytes
	sweepFragFrac float64
}

// The per-purpose handler types below give each pre-bound event action a
// distinct Fire method on a one-word struct embedded in the JVM, so the
// kernel can dispatch without the simulator allocating method-value
// closures at construction.

type edenHandler struct{ j *JVM }

func (h *edenHandler) Fire() { h.j.onEdenExhausted() }

type cmsInitialMarkHandler struct{ j *JVM }

func (h *cmsInitialMarkHandler) Fire() { h.j.onCMSInitialMarkDue() }

type markDoneHandler struct{ j *JVM }

func (h *markDoneHandler) Fire() { h.j.onMarkingDone() }

type sweepDoneHandler struct{ j *JVM }

func (h *sweepDoneHandler) Fire() { h.j.onSweepDone() }

type progressMarkerHandler struct{ j *JVM }

func (h *progressMarkerHandler) Fire() { h.j.onProgressMarker() }

type sampleHandler struct{ j *JVM }

func (h *sampleHandler) Fire() { h.j.onSampleDue() }

// jvmCounters holds the flight-recorder counter handles the simulator
// increments on its hot paths. All handles are nil (no-op) when no
// recorder is attached.
type jvmCounters struct {
	safepoints      *telemetry.CounterHandle
	humongousAllocs *telemetry.CounterHandle
	humongousBytes  *telemetry.CounterHandle
	failPromotion   *telemetry.CounterHandle
	failEvacuation  *telemetry.CounterHandle
	failConcMode    *telemetry.CounterHandle
	collYoung       *telemetry.CounterHandle
	collMixed       *telemetry.CounterHandle
	collInitialMark *telemetry.CounterHandle
	collFull        *telemetry.CounterHandle
	collRemark      *telemetry.CounterHandle
	promotedBytes   *telemetry.CounterHandle
	oomEvents       *telemetry.CounterHandle
	concCycles      *telemetry.CounterHandle
}

func newJVMCounters(r *telemetry.Recorder) jvmCounters {
	return jvmCounters{
		safepoints:      r.Metrics().CounterHandle("safepoint.count"),
		humongousAllocs: r.Metrics().CounterHandle("gc.humongous.allocations"),
		humongousBytes:  r.Metrics().CounterHandle("gc.humongous.bytes"),
		failPromotion:   r.Metrics().CounterHandle("gc.failures.promotion"),
		failEvacuation:  r.Metrics().CounterHandle("gc.failures.evacuation"),
		failConcMode:    r.Metrics().CounterHandle("gc.failures.concurrent_mode"),
		collYoung:       r.Metrics().CounterHandle("gc.collections.young"),
		collMixed:       r.Metrics().CounterHandle("gc.collections.mixed"),
		collInitialMark: r.Metrics().CounterHandle("gc.collections.initial_mark"),
		collFull:        r.Metrics().CounterHandle("gc.collections.full"),
		collRemark:      r.Metrics().CounterHandle("gc.collections.remark"),
		promotedBytes:   r.Metrics().CounterHandle("gc.promoted_bytes"),
		oomEvents:       r.Metrics().CounterHandle("oom.events"),
		concCycles:      r.Metrics().CounterHandle("gc.concurrent.cycles"),
	}
}

// New constructs a JVM running the given workload. It panics on invalid
// configuration — experiment setup bugs should fail loudly.
func New(cfg Config, w Workload) *JVM {
	cfg = cfg.withDefaults()
	if cfg.Collector == nil {
		panic("jvm: config needs a collector")
	}
	if err := cfg.Geometry.Validate(); err != nil {
		panic(err)
	}
	if err := w.Validate(); err != nil {
		panic(err)
	}
	if w.TLABWaste > 0 && cfg.TLAB.Enabled {
		cfg.TLAB.WasteFraction = w.TLABWaste
	}

	clock := cfg.Clock
	if clock == nil {
		clock = event.New()
	}
	j := &JVM{
		cfg:     cfg,
		w:       w,
		mach:    cfg.Machine,
		col:     cfg.Collector,
		clock:   clock,
		tracker: demography.NewTracker(w.Profile),
		log:     gclog.New(),
		rng:     xrand.New(cfg.Seed),
		rec:     cfg.Recorder,
		ctr:     newJVMCounters(cfg.Recorder),
	}
	j.hEden.j = j
	j.hCMSIM.j = j
	j.hMark.j = j
	j.hSweep.j = j
	j.hMarker.j = j
	j.hSample.j = j
	j.recomputeSpeedBase()

	geo := cfg.Geometry
	if _, ok := cfg.Collector.(gcmodel.PauseTargeted); ok && !cfg.YoungExplicit {
		// G1 ergonomics: start young at the lower bound and adapt.
		lo, _ := cfg.Collector.(gcmodel.PauseTargeted).YoungBounds()
		j.g1Adaptive = true
		geo = geo.WithYoung(machine.Bytes(float64(geo.Heap) * lo))
	}
	j.heap = heapmodel.NewHeap(geo)
	j.scheduleEden()
	j.scheduleSampler()
	return j
}

// Now returns the current simulated instant.
func (j *JVM) Now() simtime.Time { return j.clock.Now() }

// Log returns the GC event log.
func (j *JVM) Log() *gclog.Log { return j.log }

// Progress returns accumulated mutator work in ideal seconds.
func (j *JVM) Progress() float64 { return j.progress }

// Heap returns the heap model (read-only use by drivers).
func (j *JVM) Heap() *heapmodel.Heap { return j.heap }

// OldLive returns the current live bytes in the old generation.
func (j *JVM) OldLive() machine.Bytes { return j.tracker.OldLive(j.clock.Now()) }

// SafepointDistribution exposes the full TTSP distribution (percentiles,
// mean) accumulated over the run.
func (j *JVM) SafepointDistribution() *safepoint.Stats { return &j.sp }

// recordTTSP folds one safepoint's time-to-safepoint into the stats.
func (j *JVM) recordTTSP(d simtime.Duration) simtime.Duration {
	j.sp.Record(d)
	if j.rec != nil {
		j.ctr.safepoints.Add(1)
	}
	return d
}

// OutOfMemory reports whether a full collection failed to fit the live
// data (the OutOfMemoryError condition), and if so when it first happened
// and by how many bytes the heap fell short.
func (j *JVM) OutOfMemory() (at simtime.Time, short machine.Bytes, oom bool) {
	return j.oomAt, j.oomBytes, j.oomBytes > 0
}

// recomputeSpeedBase refreshes the run-invariant speed factors. It must
// be called whenever the allocation rate changes; the arithmetic mirrors
// the original inline computation step for step so results stay
// bit-identical.
func (j *JVM) recomputeSpeedBase() {
	s := 1.0 / j.col.BarrierFactor()

	// Allocation-path tax relative to the TLAB fast path.
	nsPerByte := j.cfg.Alloc.NsPerByte(j.cfg.TLAB, j.w.Threads)
	extra := (nsPerByte - j.cfg.Alloc.TLABCost) * j.w.AllocRate / 1e9
	if extra > 0 {
		s /= 1 + extra/float64(j.w.Threads)
	}
	j.speedBase = s
}

// speed returns the current mutator progress multiplier in (0, 1].
func (j *JVM) speed() float64 {
	s := j.speedBase

	// Concurrent GC threads and background application work steal cores
	// from the mutators.
	stolen := j.backgroundCPU
	if j.phase == cycleMarking || j.phase == cycleSweeping {
		stolen += j.col.Concurrent().Threads
	}
	if stolen > 0 {
		avail := j.mach.Topo.Cores() - stolen
		if avail < 1 {
			avail = 1
		}
		if j.w.Threads > avail {
			f := float64(avail) / float64(j.w.Threads)
			if f < 0.25 {
				f = 0.25
			}
			s *= f
		}
	}
	return s
}

// effectiveEden returns the usable eden capacity under the TLAB model.
func (j *JVM) effectiveEden() machine.Bytes {
	return j.cfg.TLAB.EffectiveEden(j.heap.Geometry().Eden(), j.w.Threads)
}

// advance materializes mutator progress and allocation up to instant t.
// Progress is frozen while the world is stopped.
func (j *JVM) advance(t simtime.Time) {
	if t < j.lastAdvance {
		panic(fmt.Sprintf("jvm: advance to %v before %v", t, j.lastAdvance))
	}
	from := j.lastAdvance
	if j.resumeAt > from {
		from = j.resumeAt
		if from > t {
			// Entirely inside a pause: nothing progresses.
			j.lastAdvance = t
			return
		}
	}
	dt := t.Sub(from).Seconds()
	j.lastAdvance = t
	if dt <= 0 {
		return
	}
	sp := j.speed()
	j.progress += dt * sp

	bytesF := j.w.AllocRate*sp*dt + j.allocCarry
	bytes := machine.Bytes(bytesF)
	j.allocCarry = bytesF - float64(bytes)
	if bytes <= 0 {
		return
	}
	if j.w.HumongousFrac > 0 {
		hum := machine.Bytes(float64(bytes) * j.w.HumongousFrac)
		bytes -= hum
		j.tracker.AllocateOld(t, j.heap.AddOld(hum))
		if j.rec != nil && hum > 0 {
			j.ctr.humongousAllocs.Add(1)
			j.ctr.humongousBytes.Add(int64(hum))
		}
	}
	accepted := j.heap.AllocateEden(bytes)
	pieces := 1 + int(accepted/(j.effectiveEden()/4+1))
	if pieces > 8 {
		pieces = 8
	}
	j.tracker.AllocateSpread(from, t, accepted, pieces)
}

// scheduleEden (re)schedules the eden-exhaustion collection event based
// on the current fill level and mutator speed.
func (j *JVM) scheduleEden() {
	j.clock.Cancel(j.edenEvent)
	j.edenEvent = nil
	if j.w.AllocRate <= 0 {
		return
	}
	free := j.effectiveEden() - j.heap.EdenUsed()
	// Only the non-humongous share of the allocation stream fills eden.
	rate := j.w.AllocRate * (1 - j.w.HumongousFrac) * j.speed()
	if rate <= 0 {
		return
	}
	var at simtime.Time
	if free <= 0 {
		at = j.clock.Now()
	} else {
		at = j.clock.Now().Add(simtime.Seconds(float64(free) / rate))
	}
	if at < j.resumeAt {
		at = j.resumeAt
	}
	j.edenEvent = j.clock.Schedule(at, &j.hEden)
}

// onEdenExhausted is the pre-bound eden-exhaustion handler. It drops the
// event registration before collecting (the kernel recycles the fired
// event, so the handle is dead).
func (j *JVM) onEdenExhausted() {
	j.edenEvent = nil
	j.minorGC(gclog.CauseAllocationFailure)
}

// onProgressMarker is the pre-bound RunUntilProgress marker handler.
func (j *JVM) onProgressMarker() { j.advance(j.clock.Now()) }

// SetAllocRate changes the workload's allocation rate mid-run (drivers
// use this for phase changes).
func (j *JVM) SetAllocRate(rate float64) {
	if rate < 0 {
		panic("jvm: negative allocation rate")
	}
	j.advance(j.clock.Now())
	j.w.AllocRate = rate
	j.recomputeSpeedBase()
	j.scheduleEden()
}

// AllocRate returns the current configured allocation rate.
func (j *JVM) AllocRate() float64 { return j.w.AllocRate }

// SetBackgroundCPU declares how many cores non-mutator application work
// (compaction, flush writers) currently occupies. It competes with the
// mutators for cores the same way concurrent GC threads do.
func (j *JVM) SetBackgroundCPU(cores int) {
	if cores < 0 {
		panic("jvm: negative background CPU")
	}
	j.advance(j.clock.Now())
	j.backgroundCPU = cores
	j.scheduleEden()
}

// AddPinned inserts externally managed long-lived bytes directly into the
// old generation (commitlog replay populating a memtable). It returns the
// bytes accepted (old-generation space permitting).
func (j *JVM) AddPinned(n machine.Bytes) machine.Bytes {
	j.advance(j.clock.Now())
	got := j.heap.AddOld(n)
	j.tracker.AddPinned(got)
	j.maybeStartCycle()
	return got
}

// ReleaseLongLived kills the given fraction of the workload's long-lived
// bytes (DaCapo iteration teardown).
func (j *JVM) ReleaseLongLived(frac float64) {
	j.advance(j.clock.Now())
	j.tracker.ReleaseLong(frac)
}

// ReleaseMediumLived kills the given fraction of the workload's
// medium-lived bytes (iteration-scoped caches and working structures).
func (j *JVM) ReleaseMediumLived(frac float64) {
	j.advance(j.clock.Now())
	j.tracker.ReleaseMedium(frac)
}
