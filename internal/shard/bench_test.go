package shard

import (
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
	"github.com/topk-er/adalsh/internal/zipfian"
)

// zipfSets builds n token-set records over n/20 entities of
// Zipf(0.6)-distributed size, entities interleaved: each record keeps
// about 90% of its entity's 60 base tokens plus two of its own.
func zipfSets(n int, seed uint64) *record.Dataset {
	rng := xhash.NewRNG(seed)
	sizes := zipfian.Sizes(n, n/20, 0.6)
	bases := make([][]uint64, len(sizes))
	var truth []int
	for ent, size := range sizes {
		bases[ent] = make([]uint64, 60)
		for i := range bases[ent] {
			bases[ent][i] = rng.Uint64()
		}
		for i := 0; i < size; i++ {
			truth = append(truth, ent)
		}
	}
	for i := len(truth) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		truth[i], truth[j] = truth[j], truth[i]
	}
	ds := &record.Dataset{Name: "zipf-sets"}
	for _, ent := range truth {
		elems := make([]uint64, 0, 62)
		for _, e := range bases[ent] {
			if rng.Float64() < 0.9 {
				elems = append(elems, e)
			}
		}
		elems = append(elems, rng.Uint64(), rng.Uint64())
		ds.Add(ent, record.NewSet(elems))
	}
	return ds
}

// BenchmarkShardedRound measures one round-1 sharded hashing round —
// two shards scanning concurrently, then the table-probe reconcile —
// over 50k Zipf token sets under OPH Jaccard. The shards' signature
// caches are filled before the timer starts, so an op is bucket
// insertion, boundary probes, forest replay and cluster collection:
// the costs a different bucketing scheme would have to beat.
func BenchmarkShardedRound(b *testing.B) {
	ds := zipfSets(50000, 1)
	rule := distance.WithJaccardOPH(distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5})
	plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(ds, Options{Shards: 2, K: 1, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	e.sync()
	e.ensureCaches(plan)
	all := make([]int32, ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	sem := make(chan struct{}, 2)
	e.shardedRound(all, plan, plan.Funcs[0], sem)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.shardedRound(all, plan, plan.Funcs[0], sem)
	}
}
