package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/dsio"
	"github.com/topk-er/adalsh/internal/metrics"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/server"
	"github.com/topk-er/adalsh/internal/snapio"
	"github.com/topk-er/adalsh/internal/xhash"
)

// sessionID names the serve-mixed session (and its snapshot file).
const sessionID = "serve"

// serveRule is the serve-mixed matching rule: Jaccard distance <= 0.4.
func serveRule() distance.Rule {
	return distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.4}
}

// serveInputs are the generated records of one serve-mixed run.
type serveInputs struct {
	recs []record.Set
	ents []int
	// queryBody[r] is the point-query body probing record r;
	// ingestBody[b] is ingest batch b (records boot+b*batch onward).
	queryBody  [][]byte
	ingestBody [][]byte
}

// serveBootDataset generates the run's records and returns the boot
// dataset (the first boot_records of them) plus all inputs.
func serveBootDataset(e *env) (*record.Dataset, *serveInputs) {
	c := e.cfg.ServeMixed
	in := &serveInputs{}
	in.recs, in.ents = serveRecords(c.BootRecords+c.IngestRecords, c.Entities, c.Zipf, e.seed)
	ds := &record.Dataset{Name: sessionID}
	for i := 0; i < c.BootRecords; i++ {
		ds.Add(in.ents[i], in.recs[i])
	}
	return ds, in
}

// encodeBodies pre-encodes every request body, so the timed phase
// spends no client time on JSON encoding.
func (in *serveInputs) encodeBodies(c serveConfig) error {
	in.queryBody = make([][]byte, len(in.recs))
	wire := make([]server.WireRecord, len(in.recs))
	for i, r := range in.recs {
		fields, err := dsio.EncodeFields([]record.Field{r})
		if err != nil {
			return err
		}
		if in.queryBody[i], err = json.Marshal(server.QueryRequest{Fields: fields, M: 3}); err != nil {
			return err
		}
		ent := in.ents[i]
		wire[i] = server.WireRecord{Entity: &ent, Fields: fields}
	}
	for lo := c.BootRecords; lo < len(in.recs); lo += c.Batch {
		hi := min(lo+c.Batch, len(in.recs))
		b, err := json.Marshal(server.IngestRequest{Records: wire[lo:hi]})
		if err != nil {
			return err
		}
		in.ingestBody = append(in.ingestBody, b)
	}
	return nil
}

// handlerClient issues requests straight into the server's handler.
type handlerClient struct{ h http.Handler }

// do serves one request and returns the status and response body.
func (c handlerClient) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

const (
	topkPath   = "/v1/sessions/" + sessionID + "/topk"
	queryPath  = "/v1/sessions/" + sessionID + "/query"
	ingestPath = "/v1/sessions/" + sessionID + "/records"
	statsPath  = "/v1/sessions/" + sessionID + "/stats"
)

// serveSetup is one warm boot of the serve-mixed session.
type serveSetup struct {
	in *serveInputs
	sv *server.Server
	cl handlerClient
	// bootPath is the warm-boot snapshot file.
	bootPath string
	designMS float64
	// inputsMB is the live heap once the inputs are generated and their
	// request bodies encoded: the benchmark's own memory, not the
	// session's. heapProbe and heapProbeCPU are the wall and CPU time
	// that reading took, which is not set-up work.
	inputsMB     float64
	heapProbe    time.Duration
	heapProbeCPU time.Duration
	// pool holds the probe records of the latest top-k.
	pool []int32
}

// probePoolClusters is how many of a top-k's largest clusters feed the
// point-query probe pool: records of the head entities stay in the
// top-k across the run, so a probe drawn from the previous top-k is
// still indexed by the next one.
const probePoolClusters = 5

// poolOf returns the probe records of a top-k response.
func poolOf(r *server.TopKResponse) []int32 {
	var pool []int32
	for i := 0; i < len(r.Clusters) && i < probePoolClusters; i++ {
		pool = append(pool, r.Clusters[i].Records...)
	}
	return pool
}

// bootServe generates the inputs, designs the pinned plan, snapshots a
// stream holding the boot records and that plan, warm-boots a server
// from the snapshot through server.LoadDir, then runs the session's
// first top-k through the handler (which computes the signatures and
// builds the point-query index).
//
// The snapshot carries no signatures. A restored cache stores them in
// record order, and its arena sizes every later page from the first
// few regions, so whether one of the first records sits in a deep
// cluster decides the session's heap: it differed by up to 45% between
// seeds, a quarter of them on the larger side. Signatures computed by
// the session's own top-k are stored level by level, which gives every
// seed the same page sizes.
func bootServe(e *env, dir string) (*serveSetup, error) {
	c := e.cfg.ServeMixed
	ds, in := serveBootDataset(e)
	if err := in.encodeBodies(c); err != nil {
		return nil, err
	}
	s := &serveSetup{in: in, bootPath: filepath.Join(dir, sessionID+".snap")}
	t0, c0 := time.Now(), cpuTime()
	s.inputsMB = liveHeapMB()
	s.heapProbe, s.heapProbeCPU = time.Since(t0), cpuTime()-c0
	t0 = time.Now()
	plan, err := core.DesignPlan(ds, serveRule(), core.SequenceConfig{Seed: e.seed})
	if err != nil {
		return nil, err
	}
	s.designMS = ms(time.Since(t0))
	if err := pin(plan, c.Cost, "serve-mixed"); err != nil {
		return nil, err
	}
	st, err := core.RestoreStream(&core.StreamState{
		Rule: serveRule(), Config: core.SequenceConfig{Seed: e.seed},
		Dataset: ds, Plan: plan, PlannedAt: ds.Len(),
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := snapio.Snapshot(&buf, st); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(s.bootPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	s.sv = server.New(server.Options{DefaultK: c.K})
	if _, err := s.sv.LoadDir(dir); err != nil {
		return nil, err
	}
	s.cl = handlerClient{s.sv.Handler()}
	code, body := s.cl.do("GET", topkPath, nil)
	if code != http.StatusOK {
		return nil, fmt.Errorf("warm-boot top-k: status %d: %s", code, body)
	}
	var tr server.TopKResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, err
	}
	s.pool = poolOf(&tr)
	return s, nil
}

// queryFailure checks a point-query reply probing record rec: a 2xx
// status and a verified match set containing rec. It returns "" when
// both hold.
func queryFailure(what string, rec int32, code int, body []byte) string {
	if code/100 != 2 {
		return fmt.Sprintf("%s (record %d): status %d: %s", what, rec, code, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return fmt.Sprintf("%s (record %d): %v", what, rec, err)
	}
	for _, m := range qr.Matches {
		if m.Matched == 0 {
			continue
		}
		for _, r := range m.Records {
			if r == rec {
				return ""
			}
		}
	}
	return fmt.Sprintf("%s: record %d missing from its verified matches", what, rec)
}

// servePhase is what the timed phase measured.
type servePhase struct {
	queryLat, queryLate, ingestLat, topkLat []float64 // ms
	topkCPU                                 []float64 // ms
	queryOK                                 []bool
	probes                                  []int32
	topkAt                                  []int // records ingested at each top-k
	last                                    *server.TopKResponse
	requests                                int
	failures                                []string
	failed                                  int
}

func (p *servePhase) fail(msg string) {
	p.failed++
	if len(p.failures) < 8 {
		p.failures = append(p.failures, msg)
	}
}

// runPhase drives the open-loop mix for the window from two
// goroutines: the writer ingests batches on a fixed schedule and runs
// a top-k after every topk_every ingested records; the reader issues
// point queries at query_rate, each timed from its due time.
func (s *serveSetup) runPhase(e *env) *servePhase {
	c := e.cfg.ServeMixed
	window := time.Duration(e.seconds * float64(time.Second))
	batches := len(s.in.ingestBody)
	queries := int(c.QueryRate * e.seconds)
	var pool atomic.Pointer[[]int32]
	pool.Store(&s.pool)
	p := &servePhase{}
	var mu sync.Mutex // guards p's failure fields
	failf := func(format string, args ...any) {
		mu.Lock()
		p.fail(fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		ingested := 0
		for b := 0; b < batches; b++ {
			dueAt := start.Add(window * time.Duration(b) / time.Duration(batches))
			time.Sleep(time.Until(dueAt))
			code, body := s.cl.do("POST", ingestPath, s.in.ingestBody[b])
			p.ingestLat = append(p.ingestLat, ms(time.Since(dueAt)))
			if code != http.StatusOK {
				failf("ingest batch %d: status %d: %s", b, code, body)
			}
			ingested += min(c.Batch, c.IngestRecords-b*c.Batch)
			if ingested%c.TopKEvery != 0 && b != batches-1 {
				continue
			}
			// The reader is parked on the session lock while a top-k
			// runs, so the process's CPU time is the top-k's.
			t0, c0 := time.Now(), cpuTime()
			code, body = s.cl.do("GET", topkPath, nil)
			p.topkLat = append(p.topkLat, ms(time.Since(t0)))
			p.topkCPU = append(p.topkCPU, ms(cpuTime()-c0))
			p.topkAt = append(p.topkAt, ingested)
			var tr server.TopKResponse
			if code != http.StatusOK {
				failf("top-k after %d ingested: status %d: %s", ingested, code, body)
				continue
			}
			if err := json.Unmarshal(body, &tr); err != nil {
				failf("top-k after %d ingested: %v", ingested, err)
				continue
			}
			next := poolOf(&tr)
			pool.Store(&next)
			p.last = &tr
		}
	}()
	go func() { // reader
		defer wg.Done()
		rng := xhash.NewRNG(e.seed ^ 0x9e4e)
		interval := time.Duration(float64(time.Second) / c.QueryRate)
		for i := 0; i < queries; i++ {
			due := start.Add(interval * time.Duration(i))
			time.Sleep(time.Until(due))
			p.queryLate = append(p.queryLate, ms(time.Since(due)))
			probes := *pool.Load()
			rec := probes[rng.Intn(len(probes))]
			code, body := s.cl.do("POST", queryPath, s.in.queryBody[rec])
			p.queryLat = append(p.queryLat, ms(time.Since(due)))
			p.probes = append(p.probes, rec)
			failure := queryFailure(fmt.Sprintf("query %d", i), rec, code, body)
			if failure != "" {
				failf("%s", failure)
			}
			p.queryOK = append(p.queryOK, failure == "")
		}
	}()
	wg.Wait()
	p.requests = len(p.ingestLat) + len(p.topkLat) + len(p.queryLat)
	return p
}

// mirror replays the session's history on a direct core.Stream restored
// from the same boot snapshot file: the warm-boot top-k, then the same
// ingests with a top-k at the same record counts. The restored-stream
// contract makes it byte-identical to the session. sink, when non-nil,
// is attached after the warm-boot top-k. Returns the stream, the last
// result and each timed-phase top-k's wall.
func (s *serveSetup) mirror(e *env, topkAt []int, sink obs.Sink) (*core.Stream, *core.Result, []float64, error) {
	c := e.cfg.ServeMixed
	f, err := os.Open(s.bootPath)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := snapio.Restore(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := st.TopK(c.K); err != nil {
		return nil, nil, nil, err
	}
	if sink != nil {
		st.SetObs(sink)
	}
	var res *core.Result
	var walls []float64
	next := c.BootRecords
	for _, at := range topkAt {
		for ; next < c.BootRecords+at; next++ {
			st.AddWithTruth(s.in.ents[next], s.in.recs[next])
		}
		t0 := time.Now()
		if res, err = st.TopK(c.K); err != nil {
			return nil, nil, nil, err
		}
		walls = append(walls, ms(time.Since(t0)))
	}
	return st, res, walls, nil
}

// sameClusters compares a handler top-k response with a direct result.
func sameClusters(r *server.TopKResponse, res *core.Result) bool {
	if len(r.Clusters) != len(res.Clusters) {
		return false
	}
	for i := range r.Clusters {
		a, b := r.Clusters[i].Records, res.Clusters[i].Records
		if len(a) != len(b) {
			return false
		}
		for j := range a {
			if a[j] != b[j] {
				return false
			}
		}
	}
	return true
}

// restartReps is the number of snapshot/restore cycles (median).
const restartReps = 3

func runServeMixed(e *env) (*outcome, error) {
	c := e.cfg.ServeMixed
	o := newOutcome()
	var s *serveSetup
	var setups, setupWalls, designs []float64
	for r := 0; r < c.SetupReps; r++ {
		s = nil
		runtime.GC()
		t0, c0 := time.Now(), cpuTime()
		var err error
		if s, err = bootServe(e, e.workPath(fmt.Sprintf("boot%d", r))); err != nil {
			return nil, fmt.Errorf("warm boot: %w", err)
		}
		setups = append(setups, (cpuTime() - c0 - s.heapProbeCPU).Seconds())
		setupWalls = append(setupWalls, (time.Since(t0) - s.heapProbe).Seconds())
		designs = append(designs, s.designMS)
	}
	o.set("setup_s", median(setups))
	o.set("setup_wall_s", median(setupWalls))
	o.set("plan.design_ms", median(designs))
	o.note("setup: %d reps, median %.3fs CPU, %.3fs wall (design %.1fms); inputs %.1f MB live",
		len(setups), median(setups), median(setupWalls), median(designs), s.inputsMB)

	runtime.GC()
	gcw := startGC()
	p := s.runPhase(e)
	gcw.report(o, p.requests, 0)
	// The session only grows during the phase, so its live heap at the
	// end is the phase's peak; the inputs the benchmark holds are not
	// the session's.
	heapMB := liveHeapMB() - s.inputsMB
	o.attempted += p.requests
	o.failed += p.failed
	o.failures = append(o.failures, p.failures...)

	within := 0
	for i, lat := range p.queryLat {
		if p.queryOK[i] && lat <= c.QueryLimitMS {
			within++
		}
	}
	o.set("filter_s", median(p.topkCPU)/1000)
	o.set("filter_wall_s", median(p.topkLat)/1000)
	o.set("topk_p50_ms", median(p.topkLat))
	o.set("query_p50_ms", median(p.queryLat))
	o.set("query_p99_ms", percentile(p.queryLat, 0.99))
	o.set("query_within_limit", ratio(float64(within), float64(len(p.queryLat))))
	o.set("ingest_p50_ms", median(p.ingestLat))
	o.set("gen.late_p99_ms", percentile(p.queryLate, 0.99))
	o.set("heap_live_peak_mb", heapMB)
	o.note("timed phase: %d queries (p50 %.3fms, p99 %.3fms, %.4f within %gms), %d ingest batches (p50 %.3fms), %d top-k %.1f ms (CPU %.1f)",
		len(p.queryLat), median(p.queryLat), percentile(p.queryLat, 0.99), ratio(float64(within), float64(len(p.queryLat))),
		c.QueryLimitMS, len(p.ingestLat), median(p.ingestLat), len(p.topkLat), p.topkLat, p.topkCPU)

	// The session's top-k before the restart, its quality, and no
	// replan during the phase.
	code, body := s.cl.do("GET", topkPath, nil)
	var pre server.TopKResponse
	if code != http.StatusOK || json.Unmarshal(body, &pre) != nil {
		o.op(fmt.Sprintf("pre-restart top-k: status %d: %s", code, body))
		return o, nil
	}
	o.op("")
	full := &record.Dataset{Name: sessionID}
	for i := 0; i < c.BootRecords+c.IngestRecords; i++ {
		full.Add(s.in.ents[i], s.in.recs[i])
	}
	var out []int32
	for _, cl := range pre.Clusters {
		out = append(out, cl.Records...)
	}
	f1 := metrics.Gold(full, sortedCopy(out), c.K).F1
	o.set("f1_gold", f1)
	o.op(floorFailure("serve", f1, c.F1Floor))
	code, body = s.cl.do("GET", statsPath, nil)
	var stats server.StatsResponse
	if code != http.StatusOK || json.Unmarshal(body, &stats) != nil {
		o.op(fmt.Sprintf("stats: status %d: %s", code, body))
	} else {
		o.set("stream.replans", float64(stats.Replans))
		if stats.Replans != 0 {
			o.op(fmt.Sprintf("%d replans during the run (the pinned plan must stay)", stats.Replans))
		} else {
			o.op("")
		}
	}

	// Warm restart on the direct mirror of the session, in memory.
	var sink *layerSink
	if e.trace {
		sink = newLayerSink()
	}
	topkAt := append(append([]int(nil), p.topkAt...), c.IngestRecords)
	var sinkArg obs.Sink
	if sink != nil {
		sinkArg = sink
	}
	st, res, walls, err := s.mirror(e, topkAt, sinkArg)
	if err != nil {
		return nil, fmt.Errorf("mirror replay: %w", err)
	}
	if !sameClusters(&pre, res) {
		o.op("direct stream replay differs from the session's top-k")
	} else {
		o.op("")
	}
	st.SetObs(nil)
	var restarts, saves, restores []float64
	var snapBytes int
	var restored *core.Stream
	for r := 0; r < restartReps; r++ {
		restored = nil
		runtime.GC()
		t0 := time.Now()
		var buf bytes.Buffer
		if err := snapio.Snapshot(&buf, st); err != nil {
			return nil, err
		}
		t1 := time.Now()
		snapBytes = buf.Len()
		if restored, err = snapio.Restore(&buf); err != nil {
			return nil, err
		}
		t2 := time.Now()
		restarts = append(restarts, t2.Sub(t0).Seconds())
		saves = append(saves, ms(t1.Sub(t0)))
		restores = append(restores, ms(t2.Sub(t1)))
	}
	again, err := restored.TopK(c.K)
	if err != nil {
		return nil, fmt.Errorf("restored top-k: %w", err)
	}
	if fingerprint(again) != fingerprint(res) {
		o.op("restored session's top-k differs from the pre-save one")
	} else {
		o.op("")
	}
	o.set("restart_s", median(restarts))
	o.set("snapio.save_ms", median(saves))
	o.set("snapio.restore_ms", median(restores))
	o.set("snapio.mb", float64(snapBytes)/(1<<20))
	o.note("restart: snapshot %.1f MB, save %.1fms + restore %.1fms (median of %d)",
		float64(snapBytes)/(1<<20), median(saves), median(restores), restartReps)
	if !e.trace {
		return o, nil
	}
	s.serveLayers(o, e, st, res, sink, walls, topkAt, p)
	return o, nil
}

// serveLayers reports the serve-mixed per-layer metrics: the mirror's
// traced top-k passes, an untraced mirror for the tracing overhead, a
// direct QueryIndex replay of the run's probes, and handler latency
// with no concurrent load.
func (s *serveSetup) serveLayers(o *outcome, e *env, st *core.Stream, last *core.Result, sink *layerSink, tracedWalls []float64, topkAt []int, p *servePhase) {
	c := e.cfg.ServeMixed
	_, _, walls, err := s.mirror(e, topkAt, nil)
	if err != nil {
		o.op(fmt.Sprintf("untraced mirror: %v", err))
		return
	}
	o.set("stream.topk_ms", median(walls))
	o.set("trace.overhead_s", (median(tracedWalls)-median(walls))/1000)
	hashWall, hashWork, _ := sink.StageAgg(obs.StageHash)
	pairWall, _, _ := sink.StageAgg(obs.StagePairwise)
	filterSpan, _, _ := sink.StageAgg(obs.StageFilter)
	var tracedSum float64
	for _, w := range tracedWalls {
		tracedSum += w
	}
	hits, misses := sink.Counter(obs.CtrCacheHits), sink.Counter(obs.CtrCacheMisses)
	coll := sink.Counter(obs.CtrBucketCollisions)
	comps := sink.Counter(obs.CtrPairComparisons)
	o.set("hash.wall_ms", ms(hashWall))
	o.set("hash.work_ms", ms(hashWork))
	o.set("hash.rounds", float64(sink.Counter(obs.CtrRehashRounds)+int64(len(topkAt))))
	o.set("hash.evals", float64(sink.Counter(obs.CtrHashEvals)))
	o.set("hash.sig_elems", float64(sink.Counter(obs.CtrSigElemsHashed)))
	o.set("hash.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	o.set("hash.collisions", float64(coll))
	o.set("hash.merge_ratio", ratio(float64(sink.Counter(obs.CtrMerges)-sink.pairMerges()), float64(coll)))
	o.set("pairwise.wall_ms", ms(pairWall))
	o.set("pairwise.comparisons", float64(comps))
	o.set("pairwise.kernel_decided_ratio", ratio(float64(sink.Counter(obs.CtrKernelPrefilterRejects)+
		sink.Counter(obs.CtrKernelEarlyExits)), float64(comps)))
	other := ms(filterSpan - hashWall - pairWall)
	o.set("loop.other_ms", other)
	layerSumCheck(o, ratio(ms(filterSpan), tracedSum),
		fmt.Sprintf("hash %.1fms + pairwise %.1fms + loop.other %.1fms", ms(hashWall), ms(pairWall), other),
		fmt.Sprintf("the traced wall of %d top-k passes", len(topkAt)))

	// Unit costs on the final session state: the stream's dataset and
	// plan, with the last top-k's largest cluster climbing the whole
	// ladder. A stream reports no rounds, so nothing is explained.
	set := &batchSet{name: sessionID, ds: st.Dataset(), plan: st.Plan()}
	replayLayers(o, set, &setPass{res: last, maxLevel: st.Plan().L()}, 0, 0, 0, e.cfg.Workers)

	// Direct index replay with the run's probe records.
	ix := st.QueryIndex()
	var lat []float64
	var probes, cands, matched int
	for _, rec := range p.probes {
		q := &record.Record{Fields: []record.Field{s.in.recs[rec]}}
		t0 := time.Now()
		r, err := ix.Query(q, 3, core.QueryOptions{})
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1000)
		if err != nil {
			o.op(fmt.Sprintf("direct query replay: %v", err))
			return
		}
		probes += r.Probes
		cands += len(r.Candidates)
		matched += len(r.MatchedRecords)
	}
	n := float64(len(p.probes))
	o.set("query.index_p50_us", median(lat))
	o.set("query.probes", ratio(float64(probes), n))
	o.set("query.candidates_per_query", ratio(float64(cands), n))
	o.set("query.verified_ratio", ratio(float64(matched), float64(cands)))

	// Handler latency with nothing else running.
	pool := s.pool
	if p.last != nil {
		pool = poolOf(p.last)
	}
	rng := xhash.NewRNG(e.seed ^ 0x9e1e7)
	var quiet []float64
	for i := 0; i < c.QuietQueries; i++ {
		rec := pool[rng.Intn(len(pool))]
		t0 := time.Now()
		code, body := s.cl.do("POST", queryPath, s.in.queryBody[rec])
		quiet = append(quiet, float64(time.Since(t0).Nanoseconds())/1000)
		o.op(queryFailure(fmt.Sprintf("quiet query %d", i), rec, code, body))
	}
	o.set("server.query_quiet_p50_us", median(quiet))
}

func sortedCopy(xs []int32) []int32 {
	out := append([]int32(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// floorFailure describes an F1 below its floor ("" when at or above).
func floorFailure(what string, f1, floor float64) string {
	if f1 < floor {
		return fmt.Sprintf("%s: f1_gold %.4f below floor %.2f", what, f1, floor)
	}
	return ""
}
