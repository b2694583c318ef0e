#!/bin/sh
# CI gate: formatting, build, vet (and the perfbench benchmark module's
# vet and tests, which the root's ./... does not reach), race-enabled
# tests (including the labd daemon's scheduler/cache/e2e suite and the
# fault-injection package), a chaos smoke (the fixed-seed campaign:
# injected panic, cache corruption and flaky HTTP must all converge
# byte-identically,
# and an always-flaky daemon still answers /v1/state, /healthz and
# /metrics),
# the client study's pipelined and inline trace schedules and the
# RunClientServer pin under the race detector,
# the benchmark smoke (compile + single iteration): the telemetry
# disabled path, the labd cache-hit vs cold-run pair, and the no-op
# fault-point overhead guard — the metric set's zero-allocation counter
# handles (TestCounterHandleZeroAlloc), its concurrent export
# (TestMetricsConcurrentExport) and the fleet rollup's merge property
# (TestMergeStatesMatchesOneNode) under the race detector, a short fuzz
# budget for each gclog target, the band analysis, the hdrhist decoder,
# the spec-key encoder, the batch NDJSON framing, the gossip wire
# encoder and the traceparent parser, gctop's frames under the race
# detector (one GET each, of canned readings and of a live two-node
# fleet), and the bench-gate step, which measures
# the kernel-bound benchmarks, one whole Simulate call and the whole
# three-collector client study, and fails on regression against the
# committed BENCH_baseline.json (>25% ns/op, or any allocs/op growth:
# at the gate's pinned settings allocation counts repeat exactly, so an
# increase is a real leak back onto the hot path).
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
# The benchmark is a module of its own, which the root's ./... skips:
# vet and test it too, so deleting an export it calls fails here.
(cd perfbench && go vet ./... && go test ./...)
go vet ./internal/labd/... ./internal/faultinject/...
go test -race ./...
go test -race -count=1 -run 'TestChaosCampaignConvergence|TestWarmRestartAndCorruptionRecovery|TestHTTPFlakySparesObservability' ./internal/labd/
# The sweep runner's shared cursor and the pool's FIFO ring are where
# every fan-out in the laboratory hands work across goroutines (Figure
# 3's cells, a cluster's node wheels, labd's jobs); exercise them under
# the race detector explicitly, the pool's arrival order
# (TestPoolStartsInArrivalOrder) included, and not in -short mode,
# which skips the imbalance speedup gate.
go test -race -count=1 ./internal/sweep/
# Trace e2e under the race detector: a trace is written from the HTTP
# handler, the scheduler watcher and the executing worker, and the
# chaos variant drives that concurrently with injected faults. The
# metric set those requests count into takes concurrent adds, snapshots
# and exports, and its counter handles stay allocation-free.
go test -race -count=1 -run 'TestEndToEndTracing|TestEndToEndTraceCacheDispositions|TestEndToEndTraceChaos|TestCounterHandleZeroAlloc|TestMetricsConcurrentExport' ./internal/labd/ ./internal/telemetry/
# Fleet chaos e2e under the race detector: a 3-node fleet loses a node
# mid-batch (injected kill), the router re-routes the dead shard, and
# results must be byte-identical to a single-node run; plus the peer
# cache tier, the exact-aggregation rollup (every node's metric set,
# router counters included, folded by name, and the fold equal to one
# node fed every observation in any arrival order), a standalone
# router's own /metrics, the entry-node read replicas
# (a replica hit equals the owner's bytes, a bad digest or cut body is
# relayed but not kept, async and draining submissions reach the owner,
# replicas never evict a result that has served a hit, and a leave or a
# join moves each owned key once and no replica), the relay's declared
# length (a cut body is an error, not a 200), and the one failure
# detector: only a refused connection on a fetch, forward or batch shard
# makes a node a gossip suspect, a client that hangs up suspects no one,
# and a suspect returns to routing once gossip confirms it; and
# /fleet/state's member rows, gossip's membership beside each node's
# /v1/state reading from the rollup's one fan-out (one /v1/state request
# per peer per call, no /healthz probe; a draining node reads draining,
# a killed one has no reading); the peer probe's keep-alive (40 misses, each probing
# its peer, cost each node at most 4 accepted connections, not one per
# miss); and the edge of a submission served in process or forwarded
# (the flaky-HTTP fault fires once per submission on the node that
# serves it, X-Labd-Node names that node, an invalid spec gets the
# daemon's own 400 body, an async one 202 with its Location); and a
# batch sent to a fleet node is answered as a single daemon answers it
# (a batch over 1024 jobs or with none gets the daemon's 400 body and
# simulates nothing, and each index of a batch that runs has the
# daemon's status, key, error and result bytes, in the encoder's
# framing; a shard carries each job as the client sent it, and an
# owner's 4xx reaches each of its events as the bare message).
go test -race -count=1 -run 'TestFleetChaosNodeKillByteIdentity|TestFleetPeerCacheHit|TestFleetExactAggregation|TestFleetStateOneReading|TestMergeStatesMatchesOneNode|TestStandaloneRouter|TestFleetReplicaHit|TestFleetReplicaDigestMismatch|TestFleetReplicaBypass|TestFleetReplicasSpareOwnedHits|TestFleetChurnLeavesReplicasBehind|TestRelayKeepsLength|TestDataPathSuspicion|TestFleetHangUpSuspectsNoOne|TestFleetSuspectReturnsToRouting|TestRouterPickBoundedLoadAndFailover|TestPeerProbeReusesConnections|TestFleetSubmitEdge|TestFleetBatchParity|TestFleetBatchOwnerRejection' ./internal/fleet/
# gctop under the race detector: each frame is one GET, of /v1/state
# for a node or /fleet/state for a fleet, and against a live two-node
# fleet a -fleet frame costs the peer one /v1/state request and shows
# the polled node's own Go vitals.
go test -race -count=1 ./cmd/gctop/
# Churn smoke: a 3-node gossip fleet reconfigures while a fixed-seed
# batch streams through it — a fourth node joins and warms its arc, a
# node is hard-killed, a node leaves gracefully with arc handoff — and
# every result must be byte-identical to a single-node run with zero
# client-visible failures; the kill reaches gossip first through the
# entry node's broken shard stream. Alongside it, the SWIM
# false-positive guard: a node stalled just under the suspicion window
# refutes and is never declared dead; a joiner whose ticks run before
# it announces is placed by no peer until it does; and a node that left
# and restarts under the same ID and -peers is placed again.
go test -race -count=1 -run 'TestFleetChurnByteIdentity' ./internal/fleet/
go test -race -count=1 -run 'TestStallRefutedNotDeclaredDead|TestDeathAndRecovery|TestJoinAnnounceLeaveLifecycle|TestRestartAfterLeaveRejoinsPlacement' ./internal/fleet/gossip/
# Load-generator smoke: a short fixed-seed sweep against a real
# in-process 3-node fleet over loopback HTTP: zero failed requests and
# knee detection must terminate (-ci asserts both; the knee value itself
# is machine-dependent and not asserted).
go build -o /tmp/gcload ./cmd/gcload
/tmp/gcload -inproc 3 -rate-start 200 -rate-step 200 -rate-max 600 -duration 1s -slo-p99 250ms -seed 7 -ci
go test -run=NONE -bench='BenchmarkTelemetryDisabled|BenchmarkCacheHit|BenchmarkColdRun|BenchmarkNoopFaultPoint|BenchmarkNoopTracePoint' -benchtime=1x ./...
# Parallel-stepping determinism under the race detector: a driver's
# post-band events and its Halt, which end a wheel's run wherever it is
# stepped; JVMs whose own wheels sweep.Run steps at 1, 2 and 4 workers,
# byte-identical to standalone RunFor; and the cluster's digest at
# GOMAXPROCS 1, 2 and 4, which step its 3-node ring on 1, 2 and 3
# workers. The seed-42 evaluation digest pins the event-driven
# cassandra driver to the legacy byte sequence.
go test -race -count=1 -run 'TestHaltStopsRun|TestPostBand' ./internal/event/
go test -race -count=1 -run 'TestEnsembleByteIdentity' ./internal/jvm/
go test -race -count=1 -run 'TestClusterDigestMatrix' ./internal/cluster/
go test -count=1 -run 'TestSeed42EvaluationDigest' ./internal/core/
# The client study's two trace schedules under the race detector. The
# pipelined generator draws on a second goroutine a chunk or two ahead
# of the latency math: over the YCSB core workloads, the 50/50 mix and
# an update-only mix, at horizons of no operation, part of a chunk and
# whole chunks, it must give the inline schedule's operations bit for
# bit, leave no goroutine behind, and the one-pass band reports of both
# types must equal AnalyzeBands over each type's samples
# (TestTraceSchedules). The seed-42 client study holds its committed
# operation and band pins at Parallelism 1 (inline) and 2 (pipelined)
# (TestClientStudyBytesPinned), and labd's clientserver jobs, run
# inline, hold theirs: every bit of RunClientServer's result for three
# collectors, normal and stress, the 50/50 mix and workload B
# (TestRunClientServerPinned).
go test -race -count=1 -run 'TestTraceSchedules|TestClientStudyBytesPinned|TestRunClientServerPinned' ./internal/ycsb/ ./internal/core/ .
# Differential fuzz smoke: a short fixed budget per gclog target on top of
# the committed corpora that plain `go test` replays. FuzzEventFormat holds
# the append formatters byte-identical to the fmt rendering they replace;
# FuzzParse holds the parser panic-free and its rendering drift-free.
go test -run=NONE -fuzz='^FuzzEventFormat$' -fuzztime=10s ./internal/gclog/
go test -run=NONE -fuzz='^FuzzParse$' -fuzztime=10s ./internal/gclog/
# FuzzAnalyzeBands holds the linear band analysis equal to the sort-based
# oracle kept in internal/stats/bands_test.go.
go test -run=NONE -fuzz='^FuzzAnalyzeBands$' -fuzztime=10s ./internal/stats/
# FuzzDecode holds hdrhist's decoder, which the fleet aggregator runs on
# peers' histograms, panic-free, within its bucket cap and round-tripping.
go test -run=NONE -fuzz='^FuzzDecode$' -fuzztime=10s ./internal/hdrhist/
# FuzzAppendSpecJSON holds the fast spec encoder byte-identical to
# encoding/json (or declining) and SpecKeyInto equal to SpecKey: fleet
# placement and read-replica lookups use that key.
go test -run=NONE -fuzz='^FuzzAppendSpecJSON$' -fuzztime=10s ./internal/labd/
# FuzzAppendBatchEvent holds the batch NDJSON framing to json.Encoder
# (SetEscapeHTML(false)): equal bytes whenever it frames an event, and no
# framing of an event the encoder rejects. The one framing serves the
# daemon's batch stream and a fleet node's (labd.StreamBatch).
go test -run=NONE -fuzz='^FuzzAppendBatchEvent$' -fuzztime=10s ./internal/labd/
# FuzzAppendMessage holds the hand-encoded gossip ping to encoding/json:
# every message decodes to the value json.Marshal's encoding does.
go test -run=NONE -fuzz='^FuzzAppendMessage$' -fuzztime=10s ./internal/fleet/gossip/
# FuzzParseTraceparent holds the traceparent parser to the W3C
# version-00 grammar (lowercase hex only).
go test -run=NONE -fuzz='^FuzzParseTraceparent$' -fuzztime=10s ./internal/obs/

# bench-gate: re-measure the kernel-bound artifact benchmarks (without
# -race; the gate measures the product, not the detector) and compare.
# Every line pins -cpu 1: the simulation benchmarks fan out on
# sweep.Run as wide as GOMAXPROCS, and their allocation counts move
# with that width. Figure 3 (100x) and Tables 5-7 (8x) run enough
# iterations that the few allocations made once per run, and the few
# that the garbage collector's timing adds, round away from allocs/op.
go build -o /tmp/benchdiff ./cmd/benchdiff
{
  go test -run=NONE -bench 'BenchmarkFigure3Ranking' -benchmem -benchtime=100x -count=2 -cpu 1 .
  go test -run=NONE -bench 'BenchmarkSimulate$' -benchmem -count=2 -cpu 1 .
  go test -run=NONE -bench 'BenchmarkTables567LatencyBands' -benchmem -benchtime=8x -count=2 -cpu 1 .
  go test -run=NONE -bench 'BenchmarkSimulatedHour' -benchmem -benchtime=10x -count=2 -cpu 1 ./internal/jvm/
  go test -run=NONE -bench 'BenchmarkClusterStep' -benchmem -benchtime=3x -count=2 -cpu 1 ./internal/cluster/
  go test -run=NONE -bench 'BenchmarkColdRun|BenchmarkCacheHit|BenchmarkSubmitCacheHit' -benchmem -count=2 -cpu 1 ./internal/labd/
  go test -run=NONE -bench 'BenchmarkScheduleFire|BenchmarkScheduleCancel' -benchmem -count=2 -cpu 1 ./internal/event/
  go test -run=NONE -bench 'BenchmarkHDRRecord|BenchmarkHDRQuantile' -benchmem -count=2 -cpu 1 ./internal/hdrhist/
  go test -run=NONE -bench 'BenchmarkSweepImbalance|BenchmarkFIFOImbalance' -benchmem -count=2 -cpu 1 ./internal/sweep/
  go test -run=NONE -bench 'BenchmarkRingLookup|BenchmarkRouterPick|BenchmarkRouterForward|BenchmarkHandoffPlan' -benchmem -count=2 -cpu 1 ./internal/fleet/
  go test -run=NONE -bench 'BenchmarkGossipTick' -benchmem -count=2 -cpu 1 ./internal/fleet/gossip/
} > /tmp/bench_current.txt
/tmp/benchdiff -in /tmp/bench_current.txt -out /tmp/BENCH_current.json -baseline BENCH_baseline.json
