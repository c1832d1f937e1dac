package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"github.com/topk-er/adalsh/internal/core"
)

// median returns the middle value of xs (the mean of the middle two
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// cpuTime returns the process's CPU time so far, user plus system.
// setup_s and filter_s are CPU times rather than wall times: on a
// shared 2-vCPU virtual machine whose CPUs were stolen for up to a
// sixth of the time in some minutes and not in others, the wall medians
// of otherwise equal runs moved by 20-30% while their CPU medians moved
// by 2-4%.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeapMB collects garbage and returns the live heap
// (/gc/heap/live:bytes) in MB. Reading it after a forced collection at
// a fixed point of the workload, rather than after whichever collection
// the pacer last ran, makes the figure repeat.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// gcWindow measures GC cycles, pause time and allocation across a
// phase.
type gcWindow struct{ start runtime.MemStats }

func startGC() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// report sets gc.cycles, gc.pause_ms and alloc.mb_per_op for ops
// operations completed since startGC; forced collections the benchmark
// ran itself are not counted as cycles.
func (w *gcWindow) report(o *outcome, ops int, forced uint32) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	o.set("gc.cycles", float64(end.NumGC-w.start.NumGC-forced))
	o.set("gc.pause_ms", float64(end.PauseTotalNs-w.start.PauseTotalNs)/1e6)
	if ops > 0 {
		o.set("alloc.mb_per_op", float64(end.TotalAlloc-w.start.TotalAlloc)/(1<<20)/float64(ops))
	}
}

// pin replaces a plan's calibrated cost model with the pinned one.
func pin(plan *core.Plan, cm costModel, what string) error {
	if len(cm.CostFunc) != len(plan.Hashers) {
		return fmt.Errorf("%s: pinned cost model has %d hasher costs, plan has %d hashers",
			what, len(cm.CostFunc), len(plan.Hashers))
	}
	plan.Cost = core.CostModel{CostP: cm.CostP, CostFunc: append([]float64(nil), cm.CostFunc...)}
	return nil
}

// layerSumCheck records the layer-sum check: hash + pairwise +
// loop.other (together the traced filter span) must come to within 5%
// of the caller-observed traced wall. Outside that band the check
// counts as a failed operation.
func layerSumCheck(o *outcome, sum float64, parts, of string) {
	o.set("check.layer_sum_ratio", sum)
	o.note("layer-sum check: %s = %.3f of %s", parts, sum, of)
	var failure string
	if sum < 0.95 || sum > 1.05 {
		failure = fmt.Sprintf("layer-sum check: %.3f of %s, outside 5%%", sum, of)
	}
	o.op(failure)
}
