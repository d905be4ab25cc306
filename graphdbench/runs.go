package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"graphit/internal/graph"
	"graphit/internal/server"
)

// setupReps is how many times an end-to-end run sets the server up;
// setup_s is the median and the last instance serves the run.
const setupReps = 9

// newStream returns a fresh update stream over the workload's base graph,
// or nil for the read-only workloads.
func newStream(w *workload, in *inputs, seed int64) (*updateStream, error) {
	if !w.mutable {
		return nil, nil
	}
	g, err := graph.LoadFile(in.path, graph.BuildOptions{})
	if err != nil {
		return nil, err
	}
	return newUpdateStream(g, in.sources, seed), nil
}

// configOf is the server configuration as resolved by the running server.
func configOf(w *workload, st *server.Status) map[string]any {
	cfg := serverConfig(w, "")
	return map[string]any{
		"graphs":            st.Graphs,
		"workers":           runtime.GOMAXPROCS(0),
		"max_concurrent":    st.Admission.MaxConcurrent,
		"queue_depth":       st.Admission.QueueDepth,
		"default_budget":    cfg.DefaultBudget.String(),
		"max_budget":        cfg.MaxBudget.String(),
		"round_timeout":     cfg.RoundTimeout.String(),
		"stuck_rounds":      cfg.StuckRounds,
		"breaker_threshold": cfg.BreakerThreshold,
		"breaker_cooldown":  cfg.BreakerCooldown.String(),
		"cache_entries":     st.Cache.Capacity,
		"cache_ttl_ms":      st.Cache.TTLMS,
		"coalesce":          cfg.Coalesce,
		"batch_window_ms":   st.Batch.WindowMS,
		"batch_max_lanes":   st.Batch.MaxLanes,
		"metrics":           cfg.Metrics,
		"trace_ring":        cfg.TraceRing,
		"mutable":           st.Mutable,
		"durable":           st.Recovery != nil,
		"wal_sync":          cfg.WALSync.String(),
	}
}

// epochCheck asserts that the server's mutable graph stands at exactly the
// epoch its acked batches reached, one epoch per batch.
func epochCheck(inst *instance, upd *updateStream) error {
	if upd == nil {
		return nil
	}
	acked, err := upd.ackedInOrder(0)
	if err != nil {
		return err
	}
	st, err := inst.cl.status()
	if err != nil {
		return err
	}
	for _, g := range st.Live {
		if g.Name == "lj" && g.Epoch != uint64(len(acked)) {
			return fmt.Errorf("server reports epoch %d after %d acked batches", g.Epoch, len(acked))
		}
	}
	return nil
}

// verify checks a phase's answers and folds its samples into res.
func verify(res *result, w *workload, in *inputs, upd *updateStream, samples []*sample, seed int64, epochErr error) error {
	ok := epochErr == nil
	if epochErr != nil {
		res.note("FAIL update epochs: %v", epochErr)
	}
	m, err := newModel(w, in, upd)
	if err != nil {
		return err
	}
	rep := checkAnswers(m, samples, w.checks, seed)
	for _, msg := range rep.mismatches {
		res.note("MISMATCH %s", msg)
	}
	if rep.selfCheck != nil {
		ok = false
		res.note("FAIL answer checker self-check: %v", rep.selfCheck)
	}
	res.note("check: %d answers compared with the reference, %d mismatches, perturbed answer caught: %v",
		rep.checked, len(rep.mismatches), rep.selfCheck == nil)
	res.correct = res.correct && ok && len(rep.mismatches) == 0
	shown := 0
	for _, s := range samples {
		res.attempted++
		if s.ok() {
			continue
		}
		res.failed++
		if shown < 5 && s.wrong == "" {
			shown++
			res.note("FAILED %s status=%d err=%v body-error=%q", s.id, s.status, s.err, failText(s))
		}
	}
	return nil
}

func failText(s *sample) string {
	switch {
	case s.resp != nil:
		return s.resp.Error
	case s.upd != nil:
		return s.upd.Error
	}
	return ""
}

// latencies splits a phase's successful samples into query and update
// latencies (ms from due time) and reports the generator's lateness (ms).
func latencies(samples []*sample) (queries, updates, late []float64) {
	for _, s := range samples {
		late = append(late, ms(s.sent.Sub(s.due)))
		if !s.ok() {
			continue
		}
		if s.op.q != nil {
			queries = append(queries, ms(s.latency()))
		} else {
			updates = append(updates, ms(s.latency()))
		}
	}
	return queries, updates, late
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, counts: map[string]int{}}
}

// runEndToEnd measures the end-to-end metrics: set-up, then an open-loop
// phase (latency from due time) and a closed-loop phase (throughput), with
// nothing of the benchmark's in the request path.
func runEndToEnd(w *workload, opt options, dir string) (*result, error) {
	in, err := makeInputs(w, opt.seed, dir)
	if err != nil {
		return nil, err
	}
	res := newResult()
	nproc := runtime.NumCPU()
	var setups []float64
	var inst *instance
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every set-up starts from a collected heap
		if inst, err = boot(w, in, filepath.Join(dir, fmt.Sprintf("data%d", i)), nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, inst.setup.Seconds())
	}
	defer inst.close()
	st, err := inst.cl.status()
	if err != nil {
		return nil, err
	}
	res.server = configOf(w, st)
	upd, err := newStream(w, in, opt.seed)
	if err != nil {
		return nil, err
	}
	warm := replay(inst.cl, upd, newMix(w, in, opt.seed, "warm", upd).warmOps(), nproc, "w")

	steal0, ticks0 := hostTicks()
	heap := startHeapSampler()
	openDur := time.Duration(opt.seconds) * time.Second * 3 / 5
	open := openLoop(inst.cl, newMix(w, in, opt.seed, "open", upd), w.rate, openDur, "o")
	res.metrics["heap_peak_mb"] = heap.finish()
	res.counts["heap_peak_mb"] = len(open)
	closed, wall := closedLoop(inst.cl, newMix(w, in, opt.seed, "closed", upd), nproc, time.Duration(opt.seconds)*time.Second-openDur, "c")
	res.note("host: %.2f%% of CPU time stolen by the hypervisor during the measured phases", 100*stealSince(steal0, ticks0))
	epochErr := epochCheck(inst, upd)
	if err := inst.close(); err != nil {
		return nil, err
	}

	all := append(append(warm, open...), closed...)
	if err := verify(res, w, in, upd, all, opt.seed, epochErr); err != nil {
		return nil, err
	}
	q, u, late := latencies(open)
	res.metrics["query_p50_ms"] = quantile(q, 0.50)
	res.metrics["query_p90_ms"] = quantile(q, 0.90)
	res.counts["query_p50_ms"], res.counts["query_p90_ms"] = len(q), len(q)
	done := 0
	for _, s := range closed {
		if s.ok() {
			done++
		}
	}
	res.metrics["ops_per_s"] = float64(done) / wall.Seconds()
	res.counts["ops_per_s"] = done
	res.metrics["setup_s"] = median(setups)
	res.counts["setup_s"] = len(setups)

	hits := 0
	for _, s := range open {
		if s.resp != nil && s.resp.Cached {
			hits++
		}
	}
	res.note("metric %-36s %14.6g %-6s n=%d", "query_p99_ms", quantile(q, 0.99), "ms", len(q))
	if len(u) > 0 {
		res.note("metric %-36s %14.6g %-6s n=%d", "update_p50_ms", quantile(u, 0.50), "ms", len(u))
		res.note("metric %-36s %14.6g %-6s n=%d", "update_p90_ms", quantile(u, 0.90), "ms", len(u))
	}
	res.note("metric %-36s %14.6g %-6s n=%d", "open_cache_hit_frac", ratio(float64(hits), float64(len(q))), "ratio", len(q))
	res.note("metric %-36s %14.6g %-6s n=%d", "loadgen.late_p99_ms", quantile(late, 0.99), "ms", len(late))
	res.note("set-up seconds: %.4g", setups)
	return res, nil
}

// runLayers measures the per-layer metrics in three parts: an untraced
// phase whose counter deltas split the pipeline's stages, a traced phase
// whose spans give each layer's self time, and direct calls into the
// engine, livegraph and WAL packages.
func runLayers(w *workload, opt options, dir string) (*result, error) {
	in, err := makeInputs(w, opt.seed, dir)
	if err != nil {
		return nil, err
	}
	res := newResult()
	nproc := runtime.NumCPU()
	phaseDur := time.Duration(opt.seconds) * time.Second * 2 / 5

	// Untraced phase: /metrics and the trace ring on, as graphd runs; the
	// middleware only times the handler.
	recA := newRecorder()
	instA, err := boot(w, in, filepath.Join(dir, "dataA"), nil, recA.middleware)
	if err != nil {
		return nil, err
	}
	defer instA.close()
	st, err := instA.cl.status()
	if err != nil {
		return nil, err
	}
	res.server = configOf(w, st)
	updA, err := newStream(w, in, opt.seed)
	if err != nil {
		return nil, err
	}
	warmA := replay(instA.cl, updA, newMix(w, in, opt.seed, "warm", updA).warmOps(), nproc, "w")
	recA.reset()
	p0, err := scrapeProm(instA.cl)
	if err != nil {
		return nil, err
	}
	s0, err := instA.cl.status()
	if err != nil {
		return nil, err
	}
	c0 := readProc()
	openA := openLoop(instA.cl, newMix(w, in, opt.seed, "open", updA), w.rate, phaseDur, "a")
	c1 := readProc()
	p1, err := scrapeProm(instA.cl)
	if err != nil {
		return nil, err
	}
	s1, err := instA.cl.status()
	if err != nil {
		return nil, err
	}
	epochErrA := epochCheck(instA, updA)
	if err := instA.close(); err != nil {
		return nil, err
	}
	untracedP50 := counterMetrics(res, openA, recA, p0, p1, s0, s1, c0, c1)

	// Traced phase: the same traffic on a fresh server with metrics and the
	// trace ring off, so the benchmark's engine tracer reaches the runs.
	recB := newRecorder()
	instB, err := boot(w, in, filepath.Join(dir, "dataB"), func(c *server.Config) {
		c.Metrics, c.TraceRing, c.BaseContext = false, 0, recB.baseContext
	}, recB.middleware)
	if err != nil {
		return nil, err
	}
	defer instB.close()
	updB, err := newStream(w, in, opt.seed)
	if err != nil {
		return nil, err
	}
	warmB := replay(instB.cl, updB, newMix(w, in, opt.seed, "warm", updB).warmOps(), nproc, "w")
	recB.reset()
	openB := openLoop(instB.cl, newMix(w, in, opt.seed, "open", updB), w.rate, phaseDur, "b")
	epochErrB := epochCheck(instB, updB)
	if err := instB.close(); err != nil {
		return nil, err
	}
	for _, s := range openB {
		recB.add(spanHTTP, s.id, "", s.sent, s.done)
	}
	self := selfTimes(recB.spans)
	for name, key := range map[string]string{spanHTTP: "self.http_us", spanServer: "self.server_us",
		spanQexec: "self.qexec_us", spanCore: "self.core_run_us", spanRound: "self.core_round_us"} {
		res.metrics[key] = self[name]
		res.counts[key] = len(openB)
	}
	qB, _, _ := latencies(openB)
	tracedP50 := quantile(qB, 0.5)
	res.metrics["trace.overhead_frac"] = tracedP50/untracedP50 - 1
	res.counts["trace.overhead_frac"] = len(qB)
	res.note("traced phase: query_p50_ms %.4g (untraced %.4g), %d spans", tracedP50, untracedP50, len(recB.spans))
	spanDir := filepath.Join(opt.dir, "spans")
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, opt.seed))
	if err := writeSpans(spanFile, recB.spans); err != nil {
		return nil, err
	}
	res.note("spans written to %s", spanFile)

	// Direct calls into the layers, on the benchmark's own graph copies.
	graphs, err := loadGraphs(w, in)
	if err != nil {
		return nil, err
	}
	l := &layerRun{metrics: res.metrics}
	m := newMix(w, in, opt.seed, "direct", nil)
	if err := directCore(l, m, graphs); err != nil {
		return nil, err
	}
	if err := directMulti(l, m, graphs); err != nil {
		return nil, err
	}
	store := graphs["lj"]
	if !w.social {
		store = graphs["road"]
	}
	if err := directStore(l, store, in.sources, opt.seed, filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	res.attempted += l.attempted
	res.failed += len(l.failures)
	res.correct = res.correct && len(l.failures) == 0
	for _, f := range l.failures {
		res.note("FAIL %s", f)
	}
	for _, d := range perLayer {
		if _, ok := res.counts[d.name]; !ok {
			res.counts[d.name] = 1
		}
	}
	res.counts["core.run_ms.w1"], res.counts["core.run_ms.w2"] = directQueries, directQueries
	res.counts["livegraph.apply_us"] = storeBatches

	if err := verify(res, w, in, updA, append(warmA, openA...), opt.seed, epochErrA); err != nil {
		return nil, err
	}
	if err := verify(res, w, in, updB, append(warmB, openB...), opt.seed+1, epochErrB); err != nil {
		return nil, err
	}
	return res, nil
}

// counterMetrics derives the untraced phase's per-layer metrics from the
// server's counter deltas and the middleware's handler times, and returns
// the phase's query p50 (ms).
func counterMetrics(res *result, open []*sample, rec *recorder, p0, p1 prom, s0, s1 *server.Status, c0, c1 proc) float64 {
	handler := map[string]time.Duration{}
	for _, s := range rec.spans {
		if s.Name == spanServer && s.Req != "" {
			handler[s.Req] = s.dur()
		}
	}
	var nq, nu float64
	var handlerUS, transportUS []float64
	for _, s := range open {
		if s.op.q == nil {
			nu++
			continue
		}
		nq++
		if h, ok := handler[s.id]; ok && s.ok() {
			handlerUS = append(handlerUS, us(h))
			transportUS = append(transportUS, us(s.done.Sub(s.sent)-h))
		}
	}
	m := res.metrics
	stage := func(name string) float64 {
		return delta(p0, p1, "qexec_stage_duration_seconds_sum", `stage="`+name+`"`)
	}
	m["qexec.plan_us"] = 1e6 * ratio(stage("plan"), nq)
	m["qexec.cache_us"] = 1e6 * ratio(stage("cache"), nq)
	m["qexec.coalesce_wait_us"] = 1e6 * ratio(stage("coalesce_wait"), nq)
	m["qexec.batch_wait_us"] = 1e6 * ratio(stage("batch_wait"), nq)
	m["qexec.queue_wait_ms"] = 1e3 * ratio(stage("queue_wait"), nq)
	m["qexec.run_ms"] = 1e3 * ratio(stage("run"), nq)
	m["qexec.durable_wait_ms"] = 1e3 * ratio(stage("durable"), nu)
	pipeline := stage("plan") + stage("cache") + stage("coalesce_wait") + stage("batch_wait") + stage("queue_wait") + stage("run")
	m["server.handler_us"] = mean(handlerUS)
	m["server.codec_us"] = mean(handlerUS) - 1e6*ratio(pipeline, nq)
	m["http.transport_us"] = mean(transportUS)
	res.counts["server.handler_us"], res.counts["server.codec_us"], res.counts["http.transport_us"] = len(handlerUS), len(handlerUS), len(transportUS)

	hits := float64(s1.Cache.Hits - s0.Cache.Hits)
	misses := float64(s1.Cache.Misses - s0.Cache.Misses)
	m["qexec.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["qexec.coalesced_ratio"] = ratio(float64(s1.Coalesce.Coalesced-s0.Coalesce.Coalesced), nq)
	m["qexec.runs_per_query"] = ratio(float64(s1.Runs-s0.Runs), nq)
	m["qexec.cache_invalidated_per_update"] = ratio(float64(s1.Cache.Invalidated-s0.Cache.Invalidated), nu)
	m["qexec.batch_lanes_per_run"] = ratio(float64(s1.Batch.Lanes-s0.Batch.Lanes), float64(s1.Batch.MultiRuns-s0.Batch.MultiRuns))
	m["qexec.batch_solo_ratio"] = ratio(float64(s1.Batch.Solo-s0.Batch.Solo), float64(s1.Batch.Windows-s0.Batch.Windows))
	m["livegraph.compactions"] = delta(p0, p1, "livegraph_compactions_total")
	if nu > 0 {
		walMetrics(m, p0, p1, nu*batchOps)
	}
	m["qexec.shed_total"] = delta(p0, p1, "qexec_shed_total")
	m["qexec.fallbacks_total"] = delta(p0, p1, "qexec_fallbacks_total")
	m["qexec.faults_total"] = delta(p0, p1, "qexec_faults_total")
	for _, k := range []string{"qexec.plan_us", "qexec.cache_us", "qexec.coalesce_wait_us", "qexec.batch_wait_us",
		"qexec.queue_wait_ms", "qexec.run_ms", "qexec.cache_hit_ratio", "qexec.coalesced_ratio", "qexec.runs_per_query"} {
		res.counts[k] = int(nq)
	}
	res.counts["qexec.durable_wait_ms"], res.counts["qexec.cache_invalidated_per_update"] = int(nu), int(nu)

	m["proc.cpu_ms_per_op"] = ratio(ms(c1.cpu-c0.cpu), float64(len(open)))
	m["proc.gc_pause_ms"] = ms(c1.pause - c0.pause)
	q, _, late := latencies(open)
	m["loadgen.late_ms"] = quantile(late, 0.99)
	m["loadgen.queries"], m["loadgen.updates"] = nq, nu
	res.counts["proc.cpu_ms_per_op"], res.counts["loadgen.late_ms"] = len(open), len(late)
	return quantile(q, 0.5)
}
