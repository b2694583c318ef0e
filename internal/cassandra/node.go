package cassandra

import (
	"jvmgc/internal/collector"
	"jvmgc/internal/demography"
	"jvmgc/internal/event"
	"jvmgc/internal/heapmodel"
	"jvmgc/internal/jvm"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
	"jvmgc/internal/telemetry"
	"jvmgc/internal/xrand"
)

// slice is the granularity of the storage-engine driver: flush checks,
// compaction scheduling and record sampling happen once per slice.
const slice = 5 * simtime.Second

// Node is a Cassandra server simulation mounted on an event wheel. The
// storage-engine driver (commitlog replay, the per-slice flush/compaction
// loop) runs as post-band events on the same wheel as the server JVM, so
// a Node can be stepped standalone (Run), or on its own wheel beside
// sibling nodes whose wheels advance on other workers (cluster.Run).
//
// The driver observes the JVM exactly as the original sequential
// RunFor-then-inspect loop did — post-band events fire after every JVM
// event at the same instant — so a Node run is byte-identical to the
// legacy Run whatever the worker count.
type Node struct {
	cfg   Config
	clock *event.Sim
	j     *jvm.JVM
	res   Result

	ctrFlushes      *telemetry.CounterHandle
	ctrFlushedBytes *telemetry.CounterHandle
	ctrCompactions  *telemetry.CounterHandle

	// Workload shape, fixed at construction.
	writeRate float64
	allocRate float64
	longFrac  float64

	// Driver state across slices.
	replayStart     simtime.Time
	deadline        simtime.Time
	lastProgress    float64
	sampleEvery     simtime.Duration
	nextSample      simtime.Time
	memtable        float64
	retained        float64
	records         int64
	pendingSSTables int
	compactionLeft  int
	done            bool

	hReplay replayHandler
	hSlice  sliceHandler
}

type replayHandler struct{ n *Node }

func (h *replayHandler) Fire() { h.n.onReplayDone() }

type sliceHandler struct{ n *Node }

func (h *sliceHandler) Fire() { h.n.onSlice() }

// NewNode builds a server JVM and its storage-engine driver on the given
// wheel (which must be at its start instant). Call Start to mount the
// driver, step the wheel (directly or through an ensemble) until the node
// halts it, then read Result.
func NewNode(cfg Config, clock *event.Sim) (*Node, error) {
	cfg = cfg.withDefaults()
	colCfg := collector.Config{Machine: cfg.Machine, G1PauseTarget: cfg.G1PauseTarget}
	if cfg.Costs != nil {
		colCfg.Costs = *cfg.Costs
	}
	col, err := collector.New(cfg.CollectorName, colCfg)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed).SplitLabeled("cassandra/" + cfg.CollectorName)

	n := &Node{cfg: cfg, clock: clock}
	n.hReplay.n = n
	n.hSlice.n = n
	n.res = Result{Config: cfg}
	// The record curve gains ~400 duration-spaced samples plus endpoints.
	n.res.Records = make([]RecordPoint, 0, 404)
	n.ctrFlushes = cfg.Recorder.Metrics().CounterHandle("cassandra.flushes")
	n.ctrFlushedBytes = cfg.Recorder.Metrics().CounterHandle("cassandra.flushed_bytes")
	n.ctrCompactions = cfg.Recorder.Metrics().CounterHandle("cassandra.compactions")

	// Workload shape: writes deposit HeapPerRecord of long-lived bytes in
	// the memtable; every op allocates TransientPerOp of short/medium
	// garbage.
	n.writeRate = cfg.OpsPerSec * cfg.WriteFraction
	longRate := n.writeRate * float64(cfg.HeapPerRecord)
	transientRate := cfg.OpsPerSec * float64(cfg.TransientPerOp)
	n.allocRate = longRate + transientRate
	if n.allocRate > 0 {
		n.longFrac = longRate / n.allocRate
	}
	// Transient garbage: mostly request-scoped, a configured slice of
	// per-request state alive for MeanMedium.
	shortFrac := (1 - n.longFrac) * (1 - cfg.MediumFrac)
	mediumFrac := (1 - n.longFrac) * cfg.MediumFrac

	w := jvm.Workload{
		Threads:   cfg.ClientThreads,
		AllocRate: n.allocRate,
		Profile: demography.Profile{
			ShortFrac:  shortFrac,
			MeanShort:  100 * simtime.Millisecond,
			MediumFrac: mediumFrac,
			MeanMedium: cfg.MeanMedium,
		},
	}
	n.j = jvm.New(jvm.Config{
		Machine:   cfg.Machine,
		Collector: col,
		Geometry: heapmodel.Geometry{
			Heap: cfg.Heap, Young: cfg.Young,
			SurvivorRatio: heapmodel.DefaultSurvivorRatio,
		},
		// The paper pins -Xmn for the throughput collectors; G1 keeps its
		// pause-target-driven sizing (fixing G1's young disables its pause
		// goal, which no deployment does).
		YoungExplicit: col.Name() != "G1",
		Recorder:      cfg.Recorder,
		Seed:          rng.Uint64(),
		Clock:         clock,
	}, w)
	return n, nil
}

// Done reports whether the driver has reached its deadline and halted
// the wheel.
func (n *Node) Done() bool { return n.done }

// Result returns the run outcome. It is complete once Done reports true.
func (n *Node) Result() Result { return n.res }

// Start mounts the driver on the wheel: commitlog replay first if the
// database is preloaded, then the client-driven slice loop. The node
// halts its wheel when the run completes.
func (n *Node) Start() {
	cfg := n.cfg
	// Commitlog replay: apply the preloaded data at replay speed. Replay
	// writes flow through the young generation like client writes, but at
	// ReplayOpsPerSec.
	if cfg.PreloadBytes > 0 && n.longFrac > 0 {
		// Replay applies the commitlog at ReplayOpsPerSec writes per
		// second. The JVM's lifetime profile is fixed for the run, so the
		// replay allocation rate is scaled such that the profile's
		// long-lived slice reproduces the replay's memtable build rate
		// (the remainder models decode garbage, which replay produces in
		// abundance).
		replayLong := cfg.ReplayOpsPerSec * float64(cfg.HeapPerRecord)
		n.j.SetAllocRate(replayLong / n.longFrac)
		replaySeconds := float64(cfg.PreloadBytes) / replayLong
		n.replayStart = n.j.Now()
		n.clock.SchedulePost(n.replayStart.Add(simtime.Seconds(replaySeconds)), &n.hReplay)
		return
	}
	n.beginClientPhase()
}

// onReplayDone fires at the replay deadline, after every JVM event at
// that instant, exactly where the legacy loop returned from RunFor.
func (n *Node) onReplayDone() {
	cfg := n.cfg
	n.j.Sync()
	n.res.ReplayDuration = n.j.Now().Sub(n.replayStart)
	if cfg.Recorder != nil {
		cfg.Recorder.Span(telemetry.TrackCassandra, "commitlog-replay",
			n.replayStart, n.res.ReplayDuration, 0,
			telemetry.ByteCount("replayed", cfg.PreloadBytes),
		)
		cfg.Recorder.Metrics().Add("cassandra.replayed_bytes", int64(cfg.PreloadBytes))
	}
	n.memtable = float64(cfg.PreloadBytes)
	n.records = int64(cfg.PreloadBytes / cfg.HeapPerRecord)
	n.j.SetAllocRate(n.allocRate)
	n.res.Records = append(n.res.Records, RecordPoint{Time: n.j.Now(), Records: n.records})
	n.beginClientPhase()
}

// beginClientPhase arms the slice loop for Duration of client-driven
// load.
func (n *Node) beginClientPhase() {
	n.deadline = n.j.Now().Add(n.cfg.Duration)
	n.lastProgress = n.j.Progress()
	n.sampleEvery = n.cfg.Duration / 400
	if n.sampleEvery < slice {
		n.sampleEvery = slice
	}
	n.nextSample = n.j.Now()
	n.scheduleSlice()
}

// scheduleSlice arms the next slice boundary (never past the deadline).
func (n *Node) scheduleSlice() {
	step := slice
	if remaining := n.deadline.Sub(n.j.Now()); remaining < step {
		step = remaining
	}
	n.clock.SchedulePost(n.j.Now().Add(step), &n.hSlice)
}

// onSlice is the storage-engine driver: it fires at each slice boundary
// after all JVM work at that instant, performs the flush / compaction /
// sampling bookkeeping of the original sequential loop verbatim, and
// re-arms itself until the deadline.
func (n *Node) onSlice() {
	cfg := n.cfg
	j := n.j
	j.Sync()

	// Work actually performed this slice (pauses freeze progress).
	progressed := j.Progress() - n.lastProgress
	n.lastProgress = j.Progress()
	n.res.OpsCompleted += int64(progressed * cfg.OpsPerSec)
	written := progressed * n.writeRate * float64(cfg.HeapPerRecord)
	n.memtable += written
	n.records += int64(progressed * n.writeRate)

	// Flush when the memtable exceeds its budget. A flush writes the
	// SSTable out and releases the memtable objects, retaining caches.
	if n.memtable >= float64(cfg.MemtableBudget) && cfg.MemtableBudget < cfg.Heap {
		releasable := n.memtable * (1 - cfg.RetentionFrac)
		totalLong := n.memtable + n.retained
		if totalLong > 0 {
			j.ReleaseLongLived(releasable / totalLong)
		}
		n.res.Flushes = append(n.res.Flushes, FlushEvent{
			Time: j.Now(), Released: machine.Bytes(releasable),
		})
		if cfg.Recorder != nil {
			cfg.Recorder.Span(telemetry.TrackCassandra, "memtable-flush",
				j.Now(), 0, 0,
				telemetry.ByteCount("released", machine.Bytes(releasable)),
				telemetry.ByteCount("retained", machine.Bytes(n.memtable*cfg.RetentionFrac)),
			)
			n.ctrFlushes.Add(1)
			n.ctrFlushedBytes.Add(int64(releasable))
		}
		n.retained += n.memtable * cfg.RetentionFrac
		n.memtable = 0
		n.pendingSSTables++
	}

	// Background compaction: once enough SSTables pile up, the merge
	// occupies CompactionThreads cores for a number of slices
	// proportional to the merged volume.
	if cfg.CompactionThreads > 0 {
		switch {
		case n.compactionLeft > 0:
			n.compactionLeft--
			if n.compactionLeft == 0 {
				j.SetBackgroundCPU(0)
			}
		case n.pendingSSTables >= cfg.CompactionThreshold:
			// Merging threshold×budget bytes at ~150 MB/s/thread.
			mergeBytes := float64(n.pendingSSTables) * float64(cfg.MemtableBudget)
			secs := mergeBytes / (150e6 * float64(cfg.CompactionThreads))
			n.compactionLeft = int(secs/slice.Seconds()) + 1
			n.pendingSSTables = 0
			n.res.Compactions++
			if cfg.Recorder != nil {
				cfg.Recorder.Span(telemetry.TrackCassandra, "compaction",
					j.Now(), simtime.Duration(n.compactionLeft)*slice, 0,
					telemetry.ByteCount("merged", machine.Bytes(mergeBytes)),
					telemetry.Num("threads", float64(cfg.CompactionThreads)),
				)
				n.ctrCompactions.Add(1)
			}
			j.SetBackgroundCPU(cfg.CompactionThreads)
		}
	}

	if j.Now() >= n.nextSample {
		n.res.Records = append(n.res.Records, RecordPoint{Time: j.Now(), Records: n.records})
		n.nextSample = j.Now().Add(n.sampleEvery)
	}

	if j.Now() < n.deadline {
		n.scheduleSlice()
		return
	}
	n.finish()
}

// finish seals the result and halts the wheel, which ends the run of
// whoever steps it.
func (n *Node) finish() {
	j := n.j
	if cnt := len(n.res.Records); cnt == 0 || n.res.Records[cnt-1].Time < j.Now() {
		n.res.Records = append(n.res.Records, RecordPoint{Time: j.Now(), Records: n.records})
	}
	n.res.TotalDuration = j.Now().Sub(0)
	n.res.Log = j.Log()
	n.res.FinalOldLive = j.OldLive()
	if n.cfg.Recorder != nil {
		n.cfg.Recorder.Metrics().Add("cassandra.ops_completed", n.res.OpsCompleted)
	}
	n.done = true
	n.clock.Halt()
}
