package main

import (
	"sync"

	"github.com/topk-er/adalsh/internal/obs"
)

// layerSink is the traced passes' obs sink: an obs.Collector that also
// separates the pairwise stage's merges from the hash stage's. Both
// engines report a pairwise round's merges immediately after its
// pair_comparisons count, from the goroutine driving Algorithm 1.
type layerSink struct {
	*obs.Collector
	mu         sync.Mutex
	afterPairs bool
	pairwise   int64
}

func newLayerSink() *layerSink { return &layerSink{Collector: obs.NewCollector()} }

// Count implements obs.Sink.
func (l *layerSink) Count(c obs.Counter, delta int64) {
	l.mu.Lock()
	if c == obs.CtrMerges && l.afterPairs {
		l.pairwise += delta
	}
	l.afterPairs = c == obs.CtrPairComparisons
	l.mu.Unlock()
	l.Collector.Count(c, delta)
}

// pairMerges reports the merges the pairwise stage made.
func (l *layerSink) pairMerges() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pairwise
}
