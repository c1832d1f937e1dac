// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed measuring window, checks the program's
// outputs, and prints its metrics by name with their units; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds
// the binary from source first:
//
//	bash perfbench/run.sh --workload batch-sharded --seed 1 --seconds 20 --trace 0
//
// Workloads (config.json holds their sizes, pinned cost models, quality
// floors and the query latency limit):
//
//   - batch-sharded: ~300k Zipf-0.6 token-set records written to a .col
//     file and opened mmap'd, filtered by the sharded engine (2 shards x
//     2 workers, OPH signatures, Jaccard <= 0.5, k = 10).
//   - serve-mixed: an adalshd session driven in-process through
//     server.Server.Handler(): open-loop point queries beside batched
//     ingest, a top-k after every fixed number of ingested records, and
//     a snapshot/restore at the end.
//
// --seed generates every workload's records and draws the hash
// functions of its plans; config.json names the default seed and a
// held-out one for re-checking claims on data not used while writing a
// change.
//
// --trace 0 measures the end-to-end metrics with no observability sink
// attached to the timed passes. setup_s (median set-up) and filter_s
// (median filter pass; on serve-mixed, median handler top-k) are the
// process's CPU seconds, user plus system; their wall times are the
// per-layer setup_wall_s and filter_wall_s. --trace 1 alternates untraced and
// traced passes, attaches an obs.Collector to the traced ones, replays
// single layers on inputs taken from the run, and prints the per-layer
// metrics. Every Algorithm-1 pass runs with the cost model pinned in
// config.json, so the route (and every work counter) repeats exactly
// at a fixed seed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

//go:embed config.json
var configJSON []byte

// costModel is a pinned Definition-3 cost model: it replaces the
// wall-clock calibration of core.DesignPlan so Algorithm 1 takes the
// same route on every run. To re-pin one, design the workload's plan
// with core.DesignPlan on its inputs and copy Plan.Cost; pin rejects a
// model whose hasher count no longer matches the plan.
type costModel struct {
	CostP    float64   `json:"cost_p"`
	CostFunc []float64 `json:"cost_func"`
}

type shardedConfig struct {
	// SetupReps (in every workload config) is how many set-ups setup_s
	// is the median of.
	SetupReps int       `json:"setup_reps"`
	Records   int       `json:"records"`
	Zipf      float64   `json:"zipf"`
	Shards    int       `json:"shards"`
	K         int       `json:"k"`
	F1Floor   float64   `json:"f1_floor"`
	Cost      costModel `json:"cost"`
}

type serveConfig struct {
	SetupReps     int       `json:"setup_reps"`
	BootRecords   int       `json:"boot_records"`
	IngestRecords int       `json:"ingest_records"`
	Entities      int       `json:"entities"`
	Zipf          float64   `json:"zipf"`
	Batch         int       `json:"batch"`
	TopKEvery     int       `json:"topk_every"`
	QueryRate     float64   `json:"query_rate"`
	QueryLimitMS  float64   `json:"query_limit_ms"`
	QuietQueries  int       `json:"quiet_queries"`
	K             int       `json:"k"`
	F1Floor       float64   `json:"f1_floor"`
	Cost          costModel `json:"cost"`
}

type config struct {
	DefaultSeed  uint64        `json:"default_seed"`
	HeldoutSeed  uint64        `json:"heldout_seed"`
	Workers      int           `json:"workers"`
	BatchSharded shardedConfig `json:"batch_sharded"`
	ServeMixed   serveConfig   `json:"serve_mixed"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return nil, fmt.Errorf("config.json: %w", err)
	}
	if c.Workers < 1 || c.BatchSharded.SetupReps < 1 || c.ServeMixed.SetupReps < 1 {
		return nil, fmt.Errorf("config.json: workers and every setup_reps must be >= 1")
	}
	if sm := c.ServeMixed; sm.Batch < 1 || sm.TopKEvery%sm.Batch != 0 {
		return nil, fmt.Errorf("config.json: serve_mixed topk_every %d is not a multiple of batch %d", sm.TopKEvery, sm.Batch)
	}
	return &c, nil
}

// env is one invocation's settings.
type env struct {
	cfg     *config
	seed    uint64
	seconds float64
	trace   bool
	dir     string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*outcome, error){
	"batch-sharded": runBatchSharded,
	"serve-mixed":   runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "workload: batch-sharded or serve-mixed")
	seed := flag.Uint64("seed", 0, "workload seed (0: the default seed of config.json)")
	seconds := flag.Float64("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for work files (a per-run subdirectory is created and removed)")
	commit := flag.String("commit", "unknown", "commit under test, printed with the run metadata")
	flag.Parse()

	cfg, err := loadConfig()
	if err != nil {
		fatal(err)
	}
	run, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds %v: want > 0", *seconds))
	}
	if *seed == 0 {
		*seed = cfg.DefaultSeed
	}
	// One process, Workers-wide: the engines and the load generator
	// share GOMAXPROCS = workers, so counters that depend on the worker
	// count repeat across machines.
	runtime.GOMAXPROCS(cfg.Workers)
	work, err := os.MkdirTemp(*dir, "perfbench-")
	if err != nil {
		fatal(err)
	}
	e := &env{cfg: cfg, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: work}
	out, err := run(e)
	os.RemoveAll(work)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	out.print(os.Stdout, *workload, e, *commit)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics (--trace 0) with their units,
// in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"filter_s", "s"},
	{"f1_gold", "ratio"},
	{"heap_live_peak_mb", "MB"},
}

// perLayer lists the per-layer metrics (--trace 1) with their units,
// in BENCHMARK.json order. A layer a workload does not exercise
// reports 0.
var perLayer = []struct{ name, unit string }{
	{"setup_wall_s", "s"},
	{"filter_wall_s", "s"},
	{"plan.design_ms", "ms"},
	{"dsio.open_ms", "ms"},
	{"dsio.col_mb", "MB"},
	{"hash.wall_ms", "ms"},
	{"hash.work_ms", "ms"},
	{"hash.rounds", "count"},
	{"hash.evals", "count"},
	{"hash.sig_elems", "count"},
	{"hash.cache_hit_ratio", "ratio"},
	{"hash.collisions", "count"},
	{"hash.merge_ratio", "ratio"},
	{"hash.explained_ratio", "ratio"},
	{"hash.unexplained_ms", "ms"},
	{"sig.ns_per_eval", "ns"},
	{"bucket.ns_per_insert", "ns"},
	{"bucket.ns_per_insert_w1", "ns"},
	{"shard.reconcile_ms", "ms"},
	{"shard.boundary_keys", "count"},
	{"shard.boundary_pairs", "count"},
	{"shard.reconcile_merge_ratio", "ratio"},
	{"shard.busy_max_ms", "ms"},
	{"shard.imbalance", "ratio"},
	{"shard.parallelism", "ratio"},
	{"pairwise.wall_ms", "ms"},
	{"pairwise.comparisons", "count"},
	{"pairwise.kernel_decided_ratio", "ratio"},
	{"pairwise.ns_per_pair", "ns"},
	{"loop.other_ms", "ms"},
	{"first_cluster_s", "s"},
	{"stream.topk_ms", "ms"},
	{"stream.replans", "count"},
	{"query.index_p50_us", "us"},
	{"query.probes", "count"},
	{"query.candidates_per_query", "count"},
	{"query.verified_ratio", "ratio"},
	{"server.query_quiet_p50_us", "us"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_within_limit", "ratio"},
	{"topk_p50_ms", "ms"},
	{"ingest_p50_ms", "ms"},
	{"restart_s", "s"},
	{"snapio.save_ms", "ms"},
	{"snapio.restore_ms", "ms"},
	{"snapio.mb", "MB"},
	{"gc.cycles", "count"},
	{"gc.pause_ms", "ms"},
	{"alloc.mb_per_op", "MB"},
	{"gen.late_p99_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"check.layer_sum_ratio", "ratio"},
	{"fail_frac", "ratio"},
}

// outcome is what a workload runner measured.
type outcome struct {
	attempted, failed int
	// failures holds the first few failure descriptions.
	failures []string
	values   map[string]float64
	// notes are extra human-readable report lines.
	notes []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

// op records one attempted operation or check; a non-empty failure
// counts it as failed.
func (o *outcome) op(failure string) {
	o.attempted++
	if failure == "" {
		return
	}
	o.failed++
	if len(o.failures) < 8 {
		o.failures = append(o.failures, failure)
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable report and then the JSON result line.
func (o *outcome) print(f *os.File, workload string, e *env, commit string) {
	if o.attempted < 1 {
		o.op("no operation attempted")
	}
	failFrac := float64(o.failed) / float64(o.attempted)
	o.set("fail_frac", failFrac)
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g trace=%v gomaxprocs=%d numcpu=%d go=%s gogc=%s commit=%s default_seed=%d heldout_seed=%d\n",
		workload, e.seed, e.seconds, e.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		runtime.Version(), gogc, commit, e.cfg.DefaultSeed, e.cfg.HeldoutSeed)
	for _, n := range o.notes {
		fmt.Fprintln(f, "  "+n)
	}
	for _, msg := range o.failures {
		fmt.Fprintln(f, "  FAILED: "+msg)
	}
	fmt.Fprintf(f, "  attempted=%d failed=%d fail_frac=%.6f\n", o.attempted, o.failed, failFrac)
	list := endToEnd
	if e.trace {
		list = perLayer
	}
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v := o.values[m.name]
		out[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Fprintf(f, "  %-30s %16.6f %s\n", m.name, v, m.unit)
	}
	// Values measured but not part of this run's metric list (the other
	// mode's metrics) are printed for the record.
	var extra []string
	for name := range o.values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		var b strings.Builder
		for _, name := range extra {
			fmt.Fprintf(&b, " %s=%.6g", name, o.values[name])
		}
		fmt.Fprintln(f, "  also:"+b.String())
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(f, string(line))
}

// workPath names a file in the run's work directory.
func (e *env) workPath(name string) string { return filepath.Join(e.dir, name) }
