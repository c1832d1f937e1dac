package core

import (
	"sync"
	"testing"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// cacheLayoutDataset builds a small clustered set dataset and its
// designed plan for the cache-layout tests (package-internal: the
// arena layout's innards are under test).
func cacheLayoutDataset(t testing.TB) (*record.Dataset, *Plan) {
	t.Helper()
	ds := &record.Dataset{Name: "cache-layout"}
	rng := xhash.NewRNG(17)
	for ent, size := range []int{40, 25, 15, 8, 4, 2} {
		base := make([]uint64, 50)
		for i := range base {
			base[i] = rng.Uint64()
		}
		for r := 0; r < size; r++ {
			elems := make([]uint64, 0, len(base))
			for _, e := range base {
				if rng.Float64() < 0.9 {
					elems = append(elems, e)
				}
			}
			ds.Add(ent, record.NewSet(elems))
		}
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	rule := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	plan, err := DesignPlan(ds, rule, SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds, plan
}

// TestCacheLayoutsEquivalent drives the arena and the legacy slice
// cache through the same Ensure sequence — the growing per-level
// prefixes of the designed plan, with repeated shorter lookups mixed
// in — and requires identical values, prefixes, eval counts and
// hit/miss accounting.
func TestCacheLayoutsEquivalent(t *testing.T) {
	ds, plan := cacheLayoutDataset(t)
	arena := NewCacheLayout(ds, len(plan.Hashers), CacheArena)
	slices := NewCacheLayout(ds, len(plan.Hashers), CacheSlices)
	if arena.Layout() != CacheArena || slices.Layout() != CacheSlices {
		t.Fatal("layout accessors disagree with construction")
	}
	for _, hf := range plan.Funcs {
		for rec := 0; rec < ds.Len(); rec++ {
			for h, n := range hf.FuncsPerHasher {
				if n == 0 {
					continue
				}
				// A shorter re-lookup first: a hit on both layouts once
				// any prefix exists.
				for _, want := range []int{(n + 1) / 2, n} {
					a := arena.Ensure(plan, h, rec, want)
					s := slices.Ensure(plan, h, rec, want)
					if len(a) != want || len(s) != want {
						t.Fatalf("Ensure(h=%d, rec=%d, n=%d): lengths %d, %d", h, rec, want, len(a), len(s))
					}
					for i := range a {
						if a[i] != s[i] {
							t.Fatalf("Ensure(h=%d, rec=%d, n=%d)[%d]: arena %#x != slices %#x", h, rec, want, i, a[i], s[i])
						}
					}
				}
				if ap, sp := arena.Prefix(h, rec), slices.Prefix(h, rec); ap != sp {
					t.Fatalf("Prefix(h=%d, rec=%d): arena %d != slices %d", h, rec, ap, sp)
				}
			}
		}
	}
	ae, se := arena.HashEvals(), slices.HashEvals()
	for h := range ae {
		if ae[h] != se[h] {
			t.Fatalf("HashEvals[%d]: arena %d != slices %d", h, ae[h], se[h])
		}
	}
	ah, am := arena.Lookups()
	sh, sm := slices.Lookups()
	if ah != sh || am != sm {
		t.Fatalf("Lookups: arena (%d, %d) != slices (%d, %d)", ah, am, sh, sm)
	}
}

// TestCacheArenaConcurrentEnsure exercises the cache concurrency
// contract on the arena layout — concurrent Ensure on DISTINCT records
// while the arena allocates pages underneath — and then verifies every
// value against a serially filled slice cache. Run under -race this
// also pins the copy-on-append page-table publication.
func TestCacheArenaConcurrentEnsure(t *testing.T) {
	ds, plan := cacheLayoutDataset(t)
	arena := NewCacheLayout(ds, len(plan.Hashers), CacheArena)
	last := plan.Funcs[len(plan.Funcs)-1]
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rec := w; rec < ds.Len(); rec += workers {
				// Grow the record's prefixes level by level, like the
				// re-hash rounds do.
				for _, hf := range plan.Funcs {
					for h, n := range hf.FuncsPerHasher {
						if n > 0 {
							arena.Ensure(plan, h, rec, n)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	ref := NewCacheLayout(ds, len(plan.Hashers), CacheSlices)
	for rec := 0; rec < ds.Len(); rec++ {
		for h, n := range last.FuncsPerHasher {
			if n == 0 {
				continue
			}
			a := arena.Ensure(plan, h, rec, n)
			s := ref.Ensure(plan, h, rec, n)
			for i := range a {
				if a[i] != s[i] {
					t.Fatalf("rec %d hasher %d value %d: concurrent arena %#x != serial %#x", rec, h, i, a[i], s[i])
				}
			}
		}
	}
	if evals := arena.TotalEvals(); evals != ref.TotalEvals() {
		t.Fatalf("TotalEvals: arena %d != reference %d", evals, ref.TotalEvals())
	}
}

// TestCacheGrowPreservesPrefixes pins the Stream contract for both
// layouts: growing the cache keeps existing prefixes and serves new
// records from zero.
func TestCacheGrowPreservesPrefixes(t *testing.T) {
	ds, plan := cacheLayoutDataset(t)
	half := ds.Len() / 2
	for _, layout := range []CacheLayout{CacheArena, CacheSlices} {
		// A dataset view with fewer records, as a stream would have had.
		sub := &record.Dataset{Name: "sub", Records: ds.Records[:half]}
		c := NewCacheLayout(sub, len(plan.Hashers), layout)
		n := plan.Funcs[0].FuncsPerHasher[0]
		want := make([][]uint64, half)
		for rec := 0; rec < half; rec++ {
			want[rec] = append([]uint64(nil), c.Ensure(plan, 0, rec, n)...)
		}
		c.ds = ds // the stream's dataset grew in place
		c.Grow(ds.Len())
		for rec := 0; rec < half; rec++ {
			if c.Prefix(0, rec) != n {
				t.Fatalf("layout %d: prefix lost after Grow", layout)
			}
			got := c.Ensure(plan, 0, rec, n)
			for i := range got {
				if got[i] != want[rec][i] {
					t.Fatalf("layout %d: value changed after Grow", layout)
				}
			}
		}
		for rec := half; rec < ds.Len(); rec++ {
			if c.Prefix(0, rec) != 0 {
				t.Fatalf("layout %d: new record has nonzero prefix", layout)
			}
			if got := c.Ensure(plan, 0, rec, n); len(got) != n {
				t.Fatalf("layout %d: Ensure on grown record returned %d values, want %d", layout, len(got), n)
			}
		}
	}
}

// TestRestoredArenaSizedExactly pins the restored cache's memory: each
// hasher's arena gets one page of exactly its summed prefix words, so
// MemBytes is 8 bytes per restored word plus a 16-byte sigRef per
// record and hasher — even when the first record has the deepest
// prefix, which under the page ladder would have set an oversized
// first page and forced a second.
func TestRestoredArenaSizedExactly(t *testing.T) {
	ds, _ := cacheLayoutDataset(t)
	const hashers = 2
	st := &CacheState{Layout: CacheArena, Evals: make([]int64, hashers)}
	var words int64
	for h := 0; h < hashers; h++ {
		lens := make([]int32, ds.Len())
		lens[0] = int32(3*arenaMinPage + h)
		for rec := 1; rec < len(lens); rec += 2 {
			lens[rec] = int32(1 + rec%7)
		}
		var vals []uint64
		for rec, n := range lens {
			for i := 0; i < int(n); i++ {
				vals = append(vals, uint64(h<<40|rec<<20|i))
			}
		}
		st.Lens = append(st.Lens, lens)
		st.Vals = append(st.Vals, vals)
		words += int64(len(vals))
	}
	c, err := NewCacheFromState(ds, st)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.MemBytes(), 8*words+16*int64(hashers*ds.Len()); got != want {
		t.Errorf("restored MemBytes = %d, want 8*%d words + 16*%d refs = %d", got, words, hashers*ds.Len(), want)
	}
	for h := 0; h < hashers; h++ {
		off := 0
		for rec, n := range st.Lens[h] {
			if c.Prefix(h, rec) != int(n) {
				t.Fatalf("hasher %d record %d: prefix %d, want %d", h, rec, c.Prefix(h, rec), n)
			}
			for i, v := range c.prefixValues(h, rec, int(n)) {
				if v != st.Vals[h][off+i] {
					t.Fatalf("hasher %d record %d value %d = %#x, want %#x", h, rec, i, v, st.Vals[h][off+i])
				}
			}
			off += int(n)
		}
	}
}
