package shard

import (
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// reconcileDataset builds a dataset for a 3-shard engine: entity g has
// perShard[g][s] identical records owned by shard s (so every bucket
// key of the entity is held by exactly the shards with a nonzero
// count), followed by singles records of unrelated random tokens.
func reconcileDataset(perShard [][3]int, singles int) *record.Dataset {
	rng := xhash.NewRNG(29)
	tokens := func() record.Set {
		elems := make([]uint64, 40)
		for i := range elems {
			elems[i] = rng.Uint64()
		}
		return record.NewSet(elems)
	}
	sets := make([]record.Set, len(perShard))
	need := make([][3]int, len(perShard))
	left := 0
	for g := range perShard {
		sets[g] = tokens()
		need[g] = perShard[g]
		left += need[g][0] + need[g][1] + need[g][2]
	}
	ds := &record.Dataset{Name: "reconcile"}
	for id := int32(0); left > 0; id++ {
		o := Owner(id, 3)
		g := 0
		for g < len(need) && need[g][o] == 0 {
			g++
		}
		if g == len(need) {
			ds.Add(len(perShard)+int(id), tokens())
			continue
		}
		ds.Add(g, sets[g])
		need[g][o]--
		left--
	}
	for i := 0; i < singles; i++ {
		ds.Add(-1, tokens())
	}
	return ds
}

// checkReconcile runs the 3-shard engine and the single engine on ds
// with one plan that always hashes further (pairwise priced out), and
// requires identical clusters, output and shared counters. It returns
// the engine's boundary stats and the first hash function's table
// count.
func checkReconcile(t *testing.T, ds *record.Dataset, k int, onRound func(*Engine, core.RoundInfo)) (BoundaryStats, int) {
	t.Helper()
	rule := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plan.Cost.CostP = 1e9
	col := obs.NewCollector()
	single, err := core.Filter(ds, plan, core.Options{K: k, Workers: 1, PairwiseMinPairs: 1 << 62, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	scol := obs.NewCollector()
	e, err := New(ds, Options{Shards: 3, K: k, Workers: 3, PairwiseMinPairs: 1 << 62, Obs: scol})
	if err != nil {
		t.Fatal(err)
	}
	if onRound != nil {
		o := e.opts
		o.OnRound = func(ri core.RoundInfo) { onRound(e, ri) }
		if err := e.SetOptions(o); err != nil {
			t.Fatal(err)
		}
	}
	sharded, err := e.Filter(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded.Clusters, single.Clusters) {
		t.Errorf("clusters differ from the single engine:\n  sharded: %v\n  single:  %v", sharded.Clusters, single.Clusters)
	}
	if !reflect.DeepEqual(sharded.Output, single.Output) {
		t.Errorf("output differs from the single engine")
	}
	got := scol.Counters()
	for _, name := range []string{"boundary_keys", "boundary_pairs", "reconcile_merges"} {
		delete(got, name)
	}
	if want := col.Counters(); !reflect.DeepEqual(got, want) {
		t.Errorf("counters differ:\n  sharded: %v\n  single:  %v", got, want)
	}
	if len(single.Clusters) == 0 || single.Stats.HashRounds < 2 {
		t.Fatalf("degenerate run: %d clusters, %d hash rounds", len(single.Clusters), single.Stats.HashRounds)
	}
	return e.Boundary(), len(plan.Funcs[0].Tables)
}

// TestReconcileSkipsShardWithoutKey: an entity on shards {0, 2} only.
// Shard 2's probe misses shard 1 and hits shard 0, so each of the
// entity's buckets is one boundary key with one pair.
func TestReconcileSkipsShardWithoutKey(t *testing.T) {
	ds := reconcileDataset([][3]int{{3, 0, 3}}, 12)
	bd, tables := checkReconcile(t, ds, 1, nil)
	if bd.Keys < int64(tables) || bd.Pairs != bd.Keys {
		t.Errorf("boundary keys %d, pairs %d; want pairs == keys >= %d (round 1's tables)", bd.Keys, bd.Pairs, tables)
	}
}

// TestReconcileKeyOnEveryShard: an entity on all three shards. Each of
// its buckets is one boundary key with two pairs (shard 1 -> 0 and
// shard 2 -> 1), never two keys.
func TestReconcileKeyOnEveryShard(t *testing.T) {
	ds := reconcileDataset([][3]int{{2, 2, 2}}, 12)
	bd, tables := checkReconcile(t, ds, 1, nil)
	if bd.Keys < int64(tables) || bd.Pairs != 2*bd.Keys {
		t.Errorf("boundary keys %d, pairs %d; want pairs == 2*keys, keys >= %d (round 1's tables)", bd.Keys, bd.Pairs, tables)
	}
}

// TestReconcileIdleShardNotProbed: the re-hash rounds of an entity on
// shards {0, 2} give shard 1 no records. Its tables from round 1 must
// be gone by then — every shard's tables go back to its pool when the
// round's reconcile ends — so no probe can hit a previous round's
// buckets.
func TestReconcileIdleShardNotProbed(t *testing.T) {
	ds := reconcileDataset([][3]int{{4, 0, 3}, {1, 2, 1}}, 12)
	idleRounds := 0
	checkReconcile(t, ds, 2, func(e *Engine, ri core.RoundInfo) {
		for i, s := range e.shards {
			if s.tabs != nil {
				t.Errorf("round %d: shard %d still holds its bucket tables after the reconcile", ri.Round, i)
			}
		}
		if ri.Action == "hash" && ri.Round > 1 && len(e.shards[1].lrecs) == 0 {
			idleRounds++
		}
	})
	if idleRounds == 0 {
		t.Fatal("no re-hash round left shard 1 idle; the case is not exercised")
	}
}
