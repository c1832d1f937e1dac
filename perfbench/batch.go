package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/dsio"
	"github.com/topk-er/adalsh/internal/metrics"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/shard"
)

// batchSet is a dataset with its pinned plan.
type batchSet struct {
	name  string
	ds    *record.Dataset
	plan  *core.Plan
	floor float64
}

// batchRun drives the timed filter passes of the batch workload.
type batchRun struct {
	e      *env
	set    *batchSet
	k      int
	shards int
	// heapPeak is the largest end-of-pass live heap, in MB.
	heapPeak float64
	// forcedGC counts the collections the benchmark itself forced.
	forcedGC uint32
}

// setPass is one filter pass's outcome.
type setPass struct {
	res *core.Result
	// wall is the caller-observed wall of the filter call, engine
	// construction included.
	wall time.Duration
	// cpu is the process CPU time the call took.
	cpu time.Duration
	// firstFinal is the time from the call to the first emitted final
	// cluster (the largest entity; Section 4.2's incremental mode).
	firstFinal time.Duration
	// inserts counts bucket insertions (records x tables, summed over
	// hash rounds); maxLevel is the deepest function applied.
	inserts  int64
	maxLevel int
	sink     *layerSink
	eng      *shard.Engine
}

// filter runs one top-k filter pass with the sharded engine. sink is
// nil on untraced passes.
func (b *batchRun) filter(sink *layerSink) (*setPass, error) {
	s := b.set
	p := &setPass{sink: sink}
	var t0 time.Time
	onRound := func(ri core.RoundInfo) {
		switch ri.Action {
		case "final":
			if p.firstFinal == 0 {
				p.firstFinal = time.Since(t0)
			}
		case "hash":
			p.inserts += int64(ri.ClusterSize) * int64(len(s.plan.Funcs[ri.Level-1].Tables))
			if ri.Level > p.maxLevel {
				p.maxLevel = ri.Level
			}
		}
	}
	var o obs.Sink // a nil interface on untraced passes
	if sink != nil {
		o = sink
	}
	workers := b.e.cfg.Workers
	// Every pass starts from the same heap state: earlier passes'
	// garbage collected. The runtime keeps the freed pages, so a pass
	// does not pay for faulting them back in.
	runtime.GC()
	b.forcedGC++
	var err error
	t0 = time.Now()
	c0 := cpuTime()
	p.eng, err = shard.New(s.ds, shard.Options{
		Shards: b.shards, K: b.k, Workers: workers, Obs: o, OnRound: onRound,
	})
	if err == nil {
		p.res, err = p.eng.Filter(s.plan)
	}
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - c0
	// Live heap with the engine's caches still reachable (p.eng): the
	// pass's peak.
	b.heapPeak = max(b.heapPeak, liveHeapMB())
	b.forcedGC++
	return p, err
}

// fingerprint hashes a result's clusters, so passes can be compared.
func fingerprint(res *core.Result) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range res.Clusters {
		for _, r := range c.Records {
			buf[0], buf[1], buf[2], buf[3] = byte(r), byte(r>>8), byte(r>>16), byte(r>>24)
			h.Write(buf[:])
		}
		h.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}
	return h.Sum64()
}

// layerTotals are one traced pass's per-layer figures.
type layerTotals struct {
	filterWall, filterSpan, hashWall, hashWork, pairWall time.Duration
	rounds, evals, sigElems, hits, misses, collisions    int64
	merges, pairMerges, comparisons, decided             int64
	boundaryKeys, boundaryPairs, reconcileMerges         int64
	reconcile, busyMax, busySum                          time.Duration
	busyShards                                           int
}

func totalsOf(p *setPass) layerTotals {
	var t layerTotals
	c := p.sink
	t.filterWall = p.wall
	w, _, _ := c.StageAgg(obs.StageFilter)
	t.filterSpan = w
	w, k, _ := c.StageAgg(obs.StageHash)
	t.hashWall = w
	t.hashWork = k
	w, _, _ = c.StageAgg(obs.StagePairwise)
	t.pairWall = w
	t.rounds = int64(p.res.Stats.HashRounds)
	t.evals = c.Counter(obs.CtrHashEvals)
	t.sigElems = c.Counter(obs.CtrSigElemsHashed)
	t.hits = c.Counter(obs.CtrCacheHits)
	t.misses = c.Counter(obs.CtrCacheMisses)
	t.collisions = c.Counter(obs.CtrBucketCollisions)
	t.merges = c.Counter(obs.CtrMerges)
	t.pairMerges = c.pairMerges()
	t.comparisons = c.Counter(obs.CtrPairComparisons)
	t.decided = c.Counter(obs.CtrKernelPrefilterRejects) + c.Counter(obs.CtrKernelEarlyExits)
	t.boundaryKeys = c.Counter(obs.CtrBoundaryKeys)
	t.boundaryPairs = c.Counter(obs.CtrBoundaryPairs)
	t.reconcileMerges = c.Counter(obs.CtrReconcileMerges)
	t.reconcile = p.eng.Boundary().Wall
	for _, st := range p.eng.PerShard() {
		if st.Busy > t.busyMax {
			t.busyMax = st.Busy
		}
		t.busySum += st.Busy
		t.busyShards++
	}
	return t
}

// counters is the part of a pass that must repeat exactly.
func (t *layerTotals) counters() [4]int64 {
	return [4]int64{t.evals, t.comparisons, t.rounds, t.boundaryPairs}
}

// run measures the batch workload: timed passes for the window, output
// checks on every pass, and (traced) the per-layer figures and layer
// replays.
func (b *batchRun) run(o *outcome) error {
	var walls, cpus, firsts, tracedWalls []float64
	var traced []layerTotals
	var first *setPass
	var ref uint64
	var gcw *gcWindow
	var start time.Time
	// Pass 0 is a warm-up (checked, not timed): it faults in the
	// mapped records and grows the runtime's heap before the window.
	for i := 0; ; i++ {
		if i == 1 {
			gcw = startGC()
			b.forcedGC = 0
			start = time.Now()
		}
		elapsed := i > 0 && time.Since(start).Seconds() >= b.e.seconds
		if b.e.trace && elapsed && len(walls) >= 2 && len(traced) >= 2 {
			break
		}
		if !b.e.trace && elapsed && len(walls) >= 3 {
			break
		}
		withTrace := b.e.trace && i%2 == 0 && i > 0
		var sink *layerSink
		if withTrace {
			sink = newLayerSink()
		}
		p, err := b.filter(sink)
		if err != nil {
			return fmt.Errorf("filtering %s: %w", b.set.name, err)
		}
		o.op(b.check(p, i, &ref))
		if i == 0 {
			// Keep the result, not the engine and its caches.
			kept := *p
			kept.eng, kept.sink = nil, nil
			first = &kept
		}
		if withTrace {
			tot := totalsOf(p)
			if len(traced) > 0 {
				var failure string
				if traced[0].counters() != tot.counters() {
					failure = fmt.Sprintf("pass %d: work counters %v differ from the first traced pass %v",
						i, tot.counters(), traced[0].counters())
				}
				o.op(failure)
			}
			traced = append(traced, tot)
			tracedWalls = append(tracedWalls, p.wall.Seconds())
		} else if i > 0 {
			walls = append(walls, p.wall.Seconds())
			cpus = append(cpus, p.cpu.Seconds())
			firsts = append(firsts, p.firstFinal.Seconds())
		}
	}
	gcw.report(o, len(walls)+len(tracedWalls), b.forcedGC)
	o.set("filter_s", median(cpus))
	o.set("filter_wall_s", median(walls))
	o.set("first_cluster_s", median(firsts))
	o.set("heap_live_peak_mb", b.heapPeak)
	s := b.set
	f1 := metrics.Gold(s.ds, first.res.Output, b.k).F1
	o.note("%s: %d records, f1_gold %.4f (floor %.2f), first pass %.3fs, %d hash rounds, %d pairwise rounds",
		s.name, s.ds.Len(), f1, s.floor, first.wall.Seconds(),
		first.res.Stats.HashRounds, first.res.Stats.PairwiseRounds)
	o.set("f1_gold", f1)
	o.note("filter passes: 1 warm-up, %d untraced %.3f (CPU %.3f), %d traced %.3f", len(walls), walls, cpus, len(tracedWalls), tracedWalls)
	if !b.e.trace {
		return nil
	}
	o.set("trace.overhead_s", median(tracedWalls)-median(walls))
	b.reportLayers(o, traced)
	replayLayers(o, s, first, traced[0].evals, first.inserts, traced[0].hashWork, b.e.cfg.Workers)
	return nil
}

// check verifies one pass: the Gold F1 floor and identical clusters on
// every pass (ref holds the first pass's fingerprint).
func (b *batchRun) check(p *setPass, pass int, ref *uint64) string {
	s := b.set
	fp := fingerprint(p.res)
	if pass == 0 {
		*ref = fp
	} else if fp != *ref {
		return fmt.Sprintf("%s: pass %d clusters differ from pass 0", s.name, pass)
	}
	return floorFailure(s.name, metrics.Gold(s.ds, p.res.Output, b.k).F1, s.floor)
}

// reportLayers sets the span- and counter-derived per-layer metrics
// from the traced passes: walls are medians, counters come from the
// first traced pass (the run checked that they repeat).
func (b *batchRun) reportLayers(o *outcome, traced []layerTotals) {
	col := func(f func(t *layerTotals) float64) float64 {
		xs := make([]float64, len(traced))
		for i := range traced {
			xs[i] = f(&traced[i])
		}
		return median(xs)
	}
	t := &traced[0]
	hashWall := col(func(t *layerTotals) float64 { return ms(t.hashWall) })
	hashWork := col(func(t *layerTotals) float64 { return ms(t.hashWork) })
	pairWall := col(func(t *layerTotals) float64 { return ms(t.pairWall) })
	other := col(func(t *layerTotals) float64 { return ms(t.filterSpan - t.hashWall - t.pairWall) })
	o.set("hash.wall_ms", hashWall)
	o.set("hash.work_ms", hashWork)
	o.set("hash.rounds", float64(t.rounds))
	o.set("hash.evals", float64(t.evals))
	o.set("hash.sig_elems", float64(t.sigElems))
	o.set("hash.cache_hit_ratio", ratio(float64(t.hits), float64(t.hits+t.misses)))
	o.set("hash.collisions", float64(t.collisions))
	o.set("hash.merge_ratio", ratio(float64(t.merges-t.pairMerges), float64(t.collisions)))
	o.set("pairwise.wall_ms", pairWall)
	o.set("pairwise.comparisons", float64(t.comparisons))
	o.set("pairwise.kernel_decided_ratio", ratio(float64(t.decided), float64(t.comparisons)))
	o.set("loop.other_ms", other)
	sum := col(func(t *layerTotals) float64 { return ratio(ms(t.filterSpan), ms(t.filterWall)) })
	layerSumCheck(o, sum, fmt.Sprintf("hash %.1fms + pairwise %.1fms + loop.other %.1fms", hashWall, pairWall, other),
		"the traced filter wall")
	o.set("shard.reconcile_ms", col(func(t *layerTotals) float64 { return ms(t.reconcile) }))
	o.set("shard.boundary_keys", float64(t.boundaryKeys))
	o.set("shard.boundary_pairs", float64(t.boundaryPairs))
	o.set("shard.reconcile_merge_ratio", ratio(float64(t.reconcileMerges), float64(t.boundaryPairs)))
	o.set("shard.busy_max_ms", col(func(t *layerTotals) float64 { return ms(t.busyMax) }))
	o.set("shard.imbalance", col(func(t *layerTotals) float64 {
		return ratio(ms(t.busyMax), ms(t.busySum)/float64(t.busyShards))
	}))
	o.set("shard.parallelism", ratio(hashWork, hashWall))
}

// replayLayers times single layers on inputs from the run and reports
// unit costs. With the run's eval and insert counters (inserts is 0 when
// the engine reports no rounds) it also reports how much of the hash
// stage's busy time the unit costs explain; the rest stays unexplained.
func replayLayers(o *outcome, s *batchSet, p *setPass, evals, inserts int64, hashWork time.Duration, workers int) {
	sig, sigEvals, cache := replaySig(s, p)
	w, w1, ins := replayBucket(s, cache, workers)
	pw, pairs := replayPairwise(s, p, workers)
	sigNS := ratio(float64(sig.Nanoseconds()), float64(sigEvals))
	bucketW1NS := ratio(float64(w1.Nanoseconds()), float64(ins))
	o.set("sig.ns_per_eval", sigNS)
	o.set("bucket.ns_per_insert", ratio(float64(w.Nanoseconds()), float64(ins)))
	o.set("bucket.ns_per_insert_w1", bucketW1NS)
	o.set("pairwise.ns_per_pair", ratio(float64(pw.Nanoseconds()), float64(pairs)))
	o.note("layer replay: sig %.1fns/eval, bucket %.1fns/insert at %d workers (%.1f at 1), pairwise %.1fns/pair",
		sigNS, ratio(float64(w.Nanoseconds()), float64(ins)), workers, bucketW1NS, ratio(float64(pw.Nanoseconds()), float64(pairs)))
	if inserts == 0 {
		return
	}
	// The run's counters at the replayed unit costs.
	explainedMS := (sigNS*float64(evals) + bucketW1NS*float64(inserts)) / 1e6
	work := ms(hashWork)
	o.set("hash.explained_ratio", ratio(explainedMS, work))
	o.set("hash.unexplained_ms", work-explainedMS)
	o.note("unit costs x run counters explain %.1f of %.1fms hash work; %.1fms unexplained",
		explainedMS, work, work-explainedMS)
}

// replaySig times Cache.Ensure on a fresh cache: every record at H_1,
// then the largest output cluster up to the deepest level it reached.
// Returns the time, the evaluations and the (now warm) cache.
func replaySig(s *batchSet, p *setPass) (time.Duration, int64, *core.Cache) {
	cache := core.NewCache(s.ds, len(s.plan.Hashers))
	t0 := time.Now()
	for h, n := range s.plan.Funcs[0].FuncsPerHasher {
		if n == 0 {
			continue
		}
		for rec := 0; rec < s.ds.Len(); rec++ {
			cache.Ensure(s.plan, h, rec, n)
		}
	}
	if len(p.res.Clusters) > 0 {
		top := p.res.Clusters[0]
		level := top.Level
		if level == 0 {
			level = p.maxLevel
		}
		for l := 2; l <= level; l++ {
			for h, n := range s.plan.Funcs[l-1].FuncsPerHasher {
				if n == 0 {
					continue
				}
				for _, rec := range top.Records {
					cache.Ensure(s.plan, h, int(rec), n)
				}
			}
		}
	}
	return time.Since(t0), cache.TotalEvals(), cache
}

// bucketReps is the repetition count of the bucket replay (median).
const bucketReps = 3

// replayBucket times ApplyHashOpt of H_1 over every record on a warm
// cache (no signature work), at the workload's worker count and at 1.
// Returns the two median walls and the insertion count.
func replayBucket(s *batchSet, cache *core.Cache, workers int) (time.Duration, time.Duration, int64) {
	all := make([]int32, s.ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	hf := s.plan.Funcs[0]
	timeAt := func(w int) time.Duration {
		xs := make([]float64, bucketReps)
		for i := range xs {
			t0 := time.Now()
			core.ApplyHashOpt(s.ds, s.plan, hf, cache, all, core.HashOptions{Workers: w}, nil)
			xs[i] = float64(time.Since(t0))
		}
		return time.Duration(median(xs))
	}
	return timeAt(workers), timeAt(1), int64(len(all)) * int64(len(hf.Tables))
}

// pairwiseCap bounds the pairwise replay's input.
const pairwiseCap = 2000

// replayPairwise times ApplyPairwiseOpt on the largest output cluster
// (capped). Returns the wall and the pair comparisons.
func replayPairwise(s *batchSet, p *setPass, workers int) (time.Duration, int64) {
	if len(p.res.Clusters) == 0 {
		return 0, 0
	}
	recs := p.res.Clusters[0].Records
	if len(recs) > pairwiseCap {
		recs = recs[:pairwiseCap]
	}
	_, st := core.ApplyPairwiseOpt(s.ds, s.plan.Rule, recs, core.PairwiseOptions{Workers: workers})
	return st.Wall, st.PairsComputed
}

// shardedRule is the batch-sharded rule: OPH Jaccard distance <= 0.5.
func shardedRule() distance.Rule {
	return distance.WithJaccardOPH(distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5})
}

// setupSharded generates the .col file, opens it and designs the
// pinned plan. Returns the open file and per-phase timings.
func setupSharded(e *env) (cf *dsio.ColFile, plan *core.Plan, openMS, designMS float64, err error) {
	c := e.cfg.BatchSharded
	path := e.workPath("sharded.col")
	os.Remove(path)
	if err = writeScaleCol(path, c.Records, c.Zipf, e.seed); err != nil {
		return nil, nil, 0, 0, fmt.Errorf("writing %s: %w", path, err)
	}
	t0 := time.Now()
	if cf, err = dsio.OpenCol(path); err != nil {
		return nil, nil, 0, 0, err
	}
	openMS = ms(time.Since(t0))
	t0 = time.Now()
	plan, err = core.DesignPlan(cf.Dataset, shardedRule(), core.SequenceConfig{Seed: e.seed})
	if err != nil {
		cf.Close()
		return nil, nil, 0, 0, err
	}
	designMS = ms(time.Since(t0))
	return cf, plan, openMS, designMS, nil
}

func runBatchSharded(e *env) (*outcome, error) {
	c := e.cfg.BatchSharded
	o := newOutcome()
	var cf *dsio.ColFile
	var plan *core.Plan
	var setups, setupWalls, opens, designs []float64
	for r := 0; r < c.SetupReps; r++ {
		if cf != nil {
			cf.Close()
			cf = nil
		}
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var openMS, designMS float64
		var err error
		cf, plan, openMS, designMS, err = setupSharded(e)
		if err != nil {
			return nil, err
		}
		if err := pin(plan, c.Cost, "batch-sharded"); err != nil {
			cf.Close()
			return nil, err
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		opens = append(opens, openMS)
		designs = append(designs, designMS)
	}
	defer cf.Close()
	st, err := os.Stat(e.workPath("sharded.col"))
	if err != nil {
		return nil, err
	}
	o.set("setup_s", median(setups))
	o.set("setup_wall_s", median(setupWalls))
	o.set("plan.design_ms", median(designs))
	o.set("dsio.open_ms", median(opens))
	o.set("dsio.col_mb", float64(st.Size())/(1<<20))
	o.note("setup: %d reps, median %.3fs CPU, %.3fs wall (open %.2fms, design %.1fms); col %.1f MB, mapped=%v",
		len(setups), median(setups), median(setupWalls), median(opens), median(designs), float64(st.Size())/(1<<20), cf.Mapped)
	b := &batchRun{
		e: e, k: c.K, shards: c.Shards,
		set: &batchSet{name: "scale", ds: cf.Dataset, plan: plan, floor: c.F1Floor},
	}
	return o, b.run(o)
}
