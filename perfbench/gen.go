package main

import (
	"fmt"

	"github.com/topk-er/adalsh/internal/dsio"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
	"github.com/topk-er/adalsh/internal/zipfian"
)

// Input generators. Every input is a pure function of the seed; the
// program under test sees only the generated records.

// Scale-workload record shape (the same as paperbench -scale): each
// entity has 24 base tokens derived from its ID, each record keeps
// ~90% of them plus up to two noise tokens.
const (
	scaleBaseTokens = 24
	scaleRetain     = 0.9
)

// shuffledTruth lays out entities of the given sizes record by record
// and shuffles them, so ingest order carries no signal.
func shuffledTruth(sizes []int, rng *xhash.RNG) []int32 {
	truth := make([]int32, 0, zipfian.Sum(sizes))
	for ent, sz := range sizes {
		for i := 0; i < sz; i++ {
			truth = append(truth, int32(ent))
		}
	}
	rng.Shuffle(len(truth), func(i, j int) { truth[i], truth[j] = truth[j], truth[i] })
	return truth
}

// writeScaleCol streams the batch-sharded workload into a .col file:
// records/20 entities of Zipf-distributed size.
func writeScaleCol(path string, records int, zipf float64, seed uint64) error {
	entities := records / 20
	if entities < 2 {
		entities = 2
	}
	truth := shuffledTruth(zipfian.Sizes(records, entities, zipf), xhash.NewRNG(seed^0x5ca1e))
	w, err := dsio.CreateCol(path, fmt.Sprintf("scale-%d", records))
	if err != nil {
		return err
	}
	buf := make([]uint64, 0, scaleBaseTokens+2)
	for rec, ent := range truth {
		rng := xhash.NewRNG(xhash.Combine(seed, uint64(rec)+0x9e3779b97f4a7c15))
		buf = buf[:0]
		entSeed := xhash.Combine(seed, uint64(ent))
		for j := 0; j < scaleBaseTokens; j++ {
			if rng.Float64() < scaleRetain {
				buf = append(buf, xhash.SplitMix64(entSeed+uint64(j)))
			}
		}
		for n := rng.Intn(3); n > 0; n-- {
			buf = append(buf, rng.Uint64())
		}
		if err := w.Append(int(ent), record.NewSet(buf)); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// serveRecords builds the serve-mixed record stream (the loadgen
// shape): Zipf-sized entities, each with a base set of 60-120 random
// tokens; each record keeps ~90% of its entity's tokens plus up to
// five noise tokens. Returns the records and their entity labels.
func serveRecords(records, entities int, zipf float64, seed uint64) ([]record.Set, []int) {
	rng := xhash.NewRNG(seed ^ 0x10adc0de)
	sizes := zipfian.Sizes(records, entities, zipf)
	bases := make([][]uint64, len(sizes))
	for i := range bases {
		base := make([]uint64, 60+rng.Intn(60))
		for j := range base {
			base[j] = rng.Uint64()
		}
		bases[i] = base
	}
	truth := shuffledTruth(sizes, rng)
	recs := make([]record.Set, len(truth))
	ents := make([]int, len(truth))
	for i, ent := range truth {
		var toks []uint64
		for _, t := range bases[ent] {
			if rng.Float64() < 0.9 {
				toks = append(toks, t)
			}
		}
		for n := rng.Intn(6); n > 0; n-- {
			toks = append(toks, rng.Uint64())
		}
		recs[i] = record.NewSet(toks)
		ents[i] = int(ent)
	}
	return recs, ents
}
