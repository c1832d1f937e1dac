// Package obs is the stage-level observability layer: stage-scoped
// spans (wall time, cumulative busy time, worker and wave counts) and
// monotonic work counters (hash evaluations, cache hits, bucket
// collisions, pair comparisons, merges, ...), reported through a
// pluggable Sink.
//
// The layer is allocation-conscious by construction: a nil Sink is the
// no-op default and every reporting helper (Count, Timer.End) checks
// for it once, so instrumented hot paths pay a nil comparison and
// nothing else. The Timer always measures wall time because callers
// (core.Stats) need the duration even when no sink is attached — it
// replaces, rather than duplicates, the hand-rolled time.Now()
// bookkeeping the stages used before.
//
// Counter semantics are deterministic: for a fixed dataset, plan and
// seed, a serial and a parallel run of the same filter report identical
// HashEvals/comparison counts (the parallel stages are designed to do
// the same logical work; see the equivalence tests in internal/core).
package obs

import (
	"runtime"
	"time"
)

// Stage identifies one instrumented pipeline stage.
type Stage uint8

const (
	// StageFilter spans one whole Adaptive LSH filtering run
	// (core.FilterIncremental).
	StageFilter Stage = iota
	// StageHash spans one transitive hashing round (core.ApplyHashOpt).
	StageHash
	// StagePairwise spans one pairwise verification round
	// (core.ApplyPairwiseOpt).
	StagePairwise
	// StageRecovery spans one recovery pass (core.Recover).
	StageRecovery
	// StageBlocking spans one LSH-X / Pairs baseline run
	// (internal/blocking).
	StageBlocking
	// StageStream spans one streaming top-k query (core.Stream),
	// including any lazy plan (re-)design.
	StageStream
	// StageQuery spans one online point query (core.QueryIndex.Query /
	// core.Stream.Query): multi-probe bucket lookups plus prepared-
	// kernel verification, never a full filtering pass.
	StageQuery
	// StageSnapshot spans one stream state save or restore
	// (internal/snapio): Items is the record count, and the
	// CtrSnapshotBytes / CtrRestoreBytes counters carry the encoded
	// size.
	StageSnapshot
	// StageShard spans one shard's slice of a sharded hashing round
	// (internal/shard): Items is the shard's record count for the
	// round, Workers is 1 (each shard hashes serially; parallelism
	// comes from concurrent shards, visible as the enclosing StageHash
	// span's Work/Wall ratio).
	StageShard

	numStages
)

var stageNames = [numStages]string{
	"filter", "hash", "pairwise", "recovery", "blocking", "stream", "query",
	"snapshot", "shard",
}

// String returns the stable snake_case stage name used by the JSONL
// sink and the BENCH_*.json reports.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// NumStages is the number of defined stages (for sinks that index by
// stage).
const NumStages = int(numStages)

// Counter identifies one monotonic work counter. Counters are additive
// deltas: sinks accumulate them.
type Counter uint8

const (
	// CtrHashEvals counts base hash evaluations (cached and streamed),
	// summed over hashers.
	CtrHashEvals Counter = iota
	// CtrCacheHits counts hash-cache lookups fully served from the
	// memoized prefix.
	CtrCacheHits
	// CtrCacheMisses counts hash-cache lookups that had to extend the
	// prefix (each miss implies >= 1 hash evaluation).
	CtrCacheMisses
	// CtrBucketCollisions counts insertions into an already-occupied
	// LSH bucket (the candidate edges of the collision graph).
	CtrBucketCollisions
	// CtrPairComparisons counts exact pairwise distance evaluations by
	// the pairwise computation function P and the recovery process.
	CtrPairComparisons
	// CtrMerges counts parent-pointer-tree merges (successful
	// union-find unions) across the hash and pairwise stages. The count
	// is order-independent: it always equals trees-built minus
	// components-left.
	CtrMerges
	// CtrRehashRounds counts Algorithm 1 rounds that advanced an
	// existing cluster to the next hashing function (round one over the
	// whole dataset is not a re-hash).
	CtrRehashRounds
	// CtrClustersEmitted counts final top-k clusters emitted.
	CtrClustersEmitted
	// CtrRecovered counts records re-attached by the recovery process.
	CtrRecovered
	// CtrReplans counts stream plan re-designs triggered by dataset
	// growth.
	CtrReplans
	// CtrKernelPrefilterRejects counts exact-comparison pairs decided
	// by the prepared match kernels from per-record invariants alone
	// (zero norms, intersection bounds, popcount gaps) — no
	// element-wise work. The pairs still count as comparisons: the
	// decisions are exact.
	CtrKernelPrefilterRejects
	// CtrKernelEarlyExits counts element-wise comparisons the prepared
	// match kernels abandoned before the last element, once the
	// remaining elements could no longer change the decision.
	CtrKernelEarlyExits
	// CtrQueryProbes counts bucket-key lookups performed by online
	// point queries (tables x probe keys, summed over queries).
	CtrQueryProbes
	// CtrQueryCandidates counts distinct candidate records pulled out
	// of probed buckets by online point queries.
	CtrQueryCandidates
	// CtrSnapshotBytes counts bytes written by stream state snapshots
	// (internal/snapio.Snapshot).
	CtrSnapshotBytes
	// CtrRestoreBytes counts bytes read by stream state restores
	// (internal/snapio.Restore).
	CtrRestoreBytes
	// CtrCheckpointFailures counts stream checkpoint hooks
	// (core.Stream.SetCheckpointEvery) that returned an error. The
	// query result the hook rode along with was still delivered — the
	// counter exists so persistence failures surface in monitoring even
	// where the caller (e.g. a transparent Query rebuild) swallows the
	// CheckpointError.
	CtrCheckpointFailures
	// CtrBoundaryKeys counts distinct (table, bucket key) pairs that
	// were populated by two or more shards during a sharded hashing
	// round — each counted once, by the probe of its second-lowest
	// holder shard.
	CtrBoundaryKeys
	// CtrBoundaryPairs counts the cross-shard bucket-collision edges
	// the reconcile probes produced (one per extra shard occupying a
	// boundary key). Per-shard collisions plus boundary pairs equal the
	// single-engine bucket_collisions count exactly.
	CtrBoundaryPairs
	// CtrReconcileMerges counts parent-pointer-tree merges performed by
	// the reconcile pass (boundary edges connecting components that
	// were still separate after the per-shard merges). Per-shard merges
	// plus reconcile merges equal the single-engine merges count.
	CtrReconcileMerges
	// CtrSigElemsHashed counts set-element hashes spent computing
	// signature prefixes — the work one-permutation hashing shrinks:
	// classic MinHash pays |S| element hashes per base function
	// (elems x funcs per extension), OPH pays |S| plus one visit per
	// bin for a whole range (elems + bins per extension). Families that
	// do not hash set elements contribute zero.
	CtrSigElemsHashed

	numCounters
)

var counterNames = [numCounters]string{
	"hash_evals", "cache_hits", "cache_misses", "bucket_collisions",
	"pair_comparisons", "merges", "rehash_rounds", "clusters_emitted",
	"records_recovered", "replans",
	"kernel_prefilter_rejects", "kernel_early_exits",
	"query_probes", "query_candidates",
	"snapshot_bytes", "restore_bytes",
	"checkpoint_failures",
	"boundary_keys", "boundary_pairs", "reconcile_merges",
	"sig_elems_hashed",
}

// String returns the stable snake_case counter name used by the JSONL
// sink and the BENCH_*.json reports.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// NumCounters is the number of defined counters (for sinks that index
// by counter).
const NumCounters = int(numCounters)

// MemStats is a span-scoped delta of the Go runtime's allocation
// accounting: bytes allocated, allocation count and stop-the-world GC
// pause time accumulated while the span ran. The counters are
// process-wide (runtime.MemStats has no per-goroutine view), so
// concurrent unrelated work leaks into the delta — samples are for
// single-run benchmarking (experiments.Bench), where the measured run
// is the only thing executing.
type MemStats struct {
	// AllocBytes is the TotalAlloc delta: heap bytes allocated during
	// the span, freed or not.
	AllocBytes int64
	// Mallocs is the heap-object allocation count delta.
	Mallocs int64
	// GCPauseNS is the PauseTotalNs delta: stop-the-world GC pause time
	// during the span.
	GCPauseNS int64
}

// MemSnapshot is one point-in-time reading of the runtime allocation
// counters, taken with TakeMemSnapshot and turned into a span delta
// with Delta. The zero value is "not sampled".
type MemSnapshot struct {
	totalAlloc, mallocs, pauseNS uint64
	valid                        bool
}

// TakeMemSnapshot reads the runtime allocation counters. It costs a
// runtime.ReadMemStats (a brief world stop), which is why memory
// sampling is opt-in per run rather than always on.
func TakeMemSnapshot() MemSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return MemSnapshot{totalAlloc: m.TotalAlloc, mallocs: m.Mallocs, pauseNS: m.PauseTotalNs, valid: true}
}

// Valid reports whether the snapshot was actually taken (as opposed to
// the zero value).
func (s MemSnapshot) Valid() bool { return s.valid }

// Delta reads the counters again and returns the growth since s.
func (s MemSnapshot) Delta() MemStats {
	now := TakeMemSnapshot()
	return MemStats{
		AllocBytes: int64(now.totalAlloc - s.totalAlloc),
		Mallocs:    int64(now.mallocs - s.mallocs),
		GCPauseNS:  int64(now.pauseNS - s.pauseNS),
	}
}

// Add accumulates another delta (for sinks aggregating per stage).
func (m *MemStats) Add(d MemStats) {
	m.AllocBytes += d.AllocBytes
	m.Mallocs += d.Mallocs
	m.GCPauseNS += d.GCPauseNS
}

// Span is one completed stage-scoped measurement.
type Span struct {
	// Stage identifies the instrumented stage.
	Stage Stage
	// Wall is the stage's elapsed wall-clock time.
	Wall time.Duration
	// Work is the stage's cumulative busy time: concurrent sections
	// summed across workers, sequential sections counted once. Work ==
	// Wall on serial stages; Work/Wall is the effective parallel
	// speedup.
	Work time.Duration
	// Workers is the resolved worker-pool size of the stage.
	Workers int
	// Waves counts internal dispatch waves (0 when the stage has no
	// wave structure, e.g. a fully serial pass).
	Waves int
	// Items counts the stage's input size: records for hash stages,
	// records of the verified cluster for pairwise stages, dataset
	// records for whole-run spans.
	Items int
	// Mem is the span's allocation delta, valid only when MemSampled is
	// set (memory sampling is opt-in: StartStageMem, or an explicit
	// TakeMemSnapshot pair for hand-built spans).
	Mem MemStats
	// MemSampled reports whether Mem was measured.
	MemSampled bool
	// Errored marks a span whose stage terminated with an error. Spans
	// are reported on error paths too — sinks that pair span starts
	// with ends (JSONL consumers) stay balanced — with this marker set
	// so failed stages are distinguishable from successful ones.
	Errored bool
}

// Sink receives completed spans and counter deltas. Implementations
// must be safe for concurrent use: the instrumented stages may report
// from the goroutine driving a filter run while other runs share the
// same sink. A nil Sink disables reporting at (near) zero cost.
type Sink interface {
	// Count adds delta to counter c.
	Count(c Counter, delta int64)
	// Span records one completed span.
	Span(s Span)
}

// Count adds delta to counter c on sink, tolerating a nil sink and
// skipping zero deltas.
func Count(sink Sink, c Counter, delta int64) {
	if sink != nil && delta != 0 {
		sink.Count(c, delta)
	}
}

// Timer measures one span in flight. Obtain one with StartStage, fill
// the exported Span fields the stage knows about (Workers, Waves,
// Items, Work), then call End.
type Timer struct {
	// Span carries the in-flight measurement; Wall is set by End.
	Span
	sink  Sink
	start time.Time
	mem   MemSnapshot
}

// StartStage starts a span for the stage. The wall clock runs even
// with a nil sink so End's returned duration can feed the caller's own
// stats (core.Stats keeps its wall/work fields regardless of sinks).
func StartStage(sink Sink, stage Stage) Timer {
	return Timer{Span: Span{Stage: stage}, sink: sink, start: time.Now()}
}

// StartStageMem is StartStage plus memory sampling: End fills the
// span's Mem fields with the allocation delta across the span. Costs
// two runtime.ReadMemStats; see MemStats for the process-wide caveat.
func StartStageMem(sink Sink, stage Stage) Timer {
	t := StartStage(sink, stage)
	t.mem = TakeMemSnapshot()
	return t
}

// Elapsed reports the wall time accumulated so far without ending the
// span (callers use it to derive the Work field before End).
func (t *Timer) Elapsed() time.Duration { return time.Since(t.start) }

// End completes the span, reports it to the sink (if any) and returns
// the measured wall time. A zero Work field is normalized to the wall
// time (a stage that never forked is all-sequential), and a zero
// Workers field to 1.
func (t *Timer) End() time.Duration {
	t.Wall = time.Since(t.start)
	if t.mem.Valid() {
		t.Mem = t.mem.Delta()
		t.MemSampled = true
	}
	if t.Work == 0 {
		t.Work = t.Wall
	}
	if t.Workers == 0 {
		t.Workers = 1
	}
	if t.sink != nil {
		t.sink.Span(t.Span)
	}
	return t.Wall
}

// Nop is the explicit no-op Sink: every method does nothing. A nil
// Sink behaves identically; Nop exists for call sites that want a
// non-nil default.
type Nop struct{}

// Count implements Sink.
func (Nop) Count(Counter, int64) {}

// Span implements Sink.
func (Nop) Span(Span) {}

// tee fans events out to several sinks.
type tee []Sink

func (t tee) Count(c Counter, delta int64) {
	for _, s := range t {
		s.Count(c, delta)
	}
}

func (t tee) Span(sp Span) {
	for _, s := range t {
		s.Span(sp)
	}
}

// Tee combines sinks into one, dropping nils. It returns nil when no
// non-nil sink remains and the sink itself when only one does.
func Tee(sinks ...Sink) Sink {
	var out tee
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
