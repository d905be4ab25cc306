package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/cliutil"
	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/obs"
	"graphit/internal/server"
	"graphit/internal/wal"
)

// The per-layer numbers below come from calls into each layer's public
// functions, made by the benchmark itself after the HTTP phases.
const (
	directQueries = 8  // miss queries run at 1 and 2 workers
	multiLanes    = 8  // lanes of the RunMulti comparison
	multiReps     = 2  // repetitions of that comparison (median)
	storeBatches  = 48 // batches replayed into the durable store
	storeSuffix   = 16 // batches after the checkpoint, replayed by recovery
	// smallFrontier is the frontier size below which a round counts as
	// small: too little work to amortize its synchronization.
	smallFrontier = 64
)

// schedule builds the schedule the pipeline would run q under, at workers.
func schedule(q *server.Query, workers int) (graphit.Schedule, error) {
	p, err := cliutil.ScheduleParams{
		Strategy: q.Strategy, Delta: q.Delta, Workers: workers,
		RoundTimeout: 5 * time.Second, StuckRounds: 256,
	}.Normalize()
	if err != nil {
		return graphit.Schedule{}, err
	}
	return p.Schedule()
}

// coreTracer folds the engine's round events of direct runs into totals.
type coreTracer struct {
	rounds, small, fused int64
	wall                 time.Duration
}

func (t *coreTracer) RunStart(graphit.RunInfo)    {}
func (t *coreTracer) RunEnd(graphit.Stats, error) {}
func (t *coreTracer) Round(ev graphit.RoundEvent) {
	t.rounds++
	t.fused += ev.FusedIters
	t.wall += ev.Wall
	if ev.Frontier < smallFrontier {
		t.small++
	}
}

// layerRun accumulates the direct calls' metrics and failures.
type layerRun struct {
	metrics   map[string]float64
	attempted int
	failures  []string
}

func (l *layerRun) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// directCore runs the workload's own miss queries straight through
// algo.Spec.Run at 1 and 2 workers, with the benchmark's tracer attached,
// and compares the answers across worker counts and with the reference.
func directCore(l *layerRun, m *mix, graphs map[string]*graphit.Graph) error {
	var w1, w2 time.Duration
	var st graphit.Stats
	var relaxPerEdge float64
	var mallocs, bytesAlloc uint64
	tr := &coreTracer{}
	ctx := graphit.WithTracer(context.Background(), tr)
	var relaxW1 int64
	for i := 0; i < directQueries; i++ {
		q := m.missQuery()
		spec, err := algo.Lookup(q.Algo)
		if err != nil {
			return err
		}
		g := graphs[q.Graph]
		var results [2]*algo.QueryResult
		for j, workers := range []int{1, 2} {
			sched, err := schedule(q, workers)
			if err != nil {
				return err
			}
			runCtx := context.Background()
			var ms0, ms1 runtime.MemStats
			if workers == 2 {
				runCtx = ctx
				runtime.ReadMemStats(&ms0)
			}
			start := time.Now()
			res, err := spec.Run(runCtx, g, q.Src, q.Dst, sched)
			d := time.Since(start)
			l.attempted++
			if err != nil {
				l.fail("direct %s src=%d workers=%d: %v", q.Algo, q.Src, workers, err)
				continue
			}
			results[j] = res
			if workers == 1 {
				w1 += d
				relaxW1 += res.Stats.Relaxations
				continue
			}
			runtime.ReadMemStats(&ms1)
			w2 += d
			mallocs += ms1.Mallocs - ms0.Mallocs
			bytesAlloc += ms1.TotalAlloc - ms0.TotalAlloc
			st.Rounds += res.Stats.Rounds
			st.GlobalSyncs += res.Stats.GlobalSyncs
			st.Relaxations += res.Stats.Relaxations
			relaxPerEdge += float64(res.Stats.Relaxations) / float64(g.NumEdges())
		}
		if results[0] == nil || results[1] == nil {
			continue
		}
		if !sameAnswer(spec, q, results[0].Values, results[1].Values) {
			l.fail("direct %s src=%d: 1-worker and 2-worker answers differ", q.Algo, q.Src)
		} else if i < 2 {
			ref, err := spec.Ref(g, q.Src, q.Dst)
			if err != nil {
				return err
			}
			if !sameAnswer(spec, q, ref.Values, results[1].Values) {
				l.fail("direct %s src=%d dst=%d: answer differs from the reference", q.Algo, q.Src, q.Dst)
			}
		}
	}
	n := float64(directQueries)
	l.metrics["core.run_ms.w1"] = ms(w1) / n
	l.metrics["core.run_ms.w2"] = ms(w2) / n
	l.metrics["core.w2_speedup"] = ratio(float64(w1), float64(w2))
	l.metrics["core.rounds_per_run"] = float64(st.Rounds) / n
	l.metrics["core.syncs_per_run"] = float64(st.GlobalSyncs) / n
	l.metrics["core.fused_iters_per_round"] = ratio(float64(tr.fused), float64(tr.rounds))
	l.metrics["core.round_us"] = ratio(us(tr.wall), float64(tr.rounds))
	l.metrics["core.small_round_frac"] = ratio(float64(tr.small), float64(tr.rounds))
	l.metrics["core.relax_per_run"] = float64(st.Relaxations) / n
	l.metrics["core.relax_per_edge"] = relaxPerEdge / n
	l.metrics["core.ns_per_relax"] = ratio(float64(w1), float64(relaxW1))
	l.metrics["core.allocs_per_run.w2"] = float64(mallocs) / n
	l.metrics["core.bytes_per_run.w2"] = float64(bytesAlloc) / n
	return nil
}

// directMulti compares one 8-lane lazy SSSP Spec.RunMulti with 8 solo Runs
// of the same sources at 2 workers, and checks the lanes equal the solos.
func directMulti(l *layerRun, m *mix, graphs map[string]*graphit.Graph) error {
	q := &server.Query{Algo: "sssp", Graph: "lj", Strategy: "lazy", Delta: socialDelta}
	if !m.w.social {
		q.Graph, q.Delta = "road", roadDelta
	}
	g := graphs[q.Graph]
	srcs := make([]graphit.VertexID, multiLanes)
	for i := range srcs {
		srcs[i] = m.uniformSource()
	}
	sched, err := schedule(q, 2)
	if err != nil {
		return err
	}
	spec, err := algo.Lookup("sssp")
	if err != nil {
		return err
	}
	var multi, solo []float64
	for rep := 0; rep < multiReps; rep++ {
		start := time.Now()
		lanes, err := spec.RunMulti(context.Background(), g, srcs, nil, sched)
		multi = append(multi, ms(time.Since(start)))
		l.attempted++
		if err != nil {
			l.fail("direct RunMulti: %v", err)
			continue
		}
		start = time.Now()
		var solos []*algo.QueryResult
		for _, s := range srcs {
			res, err := spec.Run(context.Background(), g, s, 0, sched)
			l.attempted++
			if err != nil {
				l.fail("direct Run src=%d: %v", s, err)
				continue
			}
			solos = append(solos, res)
		}
		solo = append(solo, ms(time.Since(start)))
		for i := range solos {
			if i < len(lanes) && !slices.Equal(lanes[i].Values, solos[i].Values) {
				l.fail("direct RunMulti lane %d (src=%d) differs from its solo run", i, srcs[i])
			}
		}
	}
	l.metrics["core.multi8_ms"] = median(multi)
	l.metrics["core.multi8_speedup"] = ratio(median(solo), median(multi))
	return nil
}

// directStore replays update batches into the benchmark's own durable
// store (wal.Open + livegraph.Recover) from nproc concurrent appliers, then
// times an explicit compaction, a checkpoint, and a recovery of the data
// directory it leaves behind. A symmetric (immutable) workload graph is
// replaced by its directed copy. The WAL metrics come from this replay
// unless the served phase already measured them on a durable graph.
func directStore(l *layerRun, g *graphit.Graph, sources []uint32, seed int64, dir string) error {
	if g.Symmetric() {
		var err error
		if g, err = graph.Build(g.Edges(), graph.BuildOptions{NumVertices: g.NumVertices(), Weighted: true, InEdges: true}); err != nil {
			return err
		}
	}
	reg := obs.NewRegistry()
	open := func(reg *obs.Registry) (*livegraph.Live, livegraph.RecoverInfo, error) {
		store, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, Name: "bench", Metrics: reg})
		if err != nil {
			return nil, livegraph.RecoverInfo{}, err
		}
		live, info, err := livegraph.Recover("bench", g, store, livegraph.Config{Metrics: reg})
		if err != nil {
			_ = store.Close()
		}
		return live, info, err
	}
	live, _, err := open(reg)
	if err != nil {
		return err
	}
	defer func() {
		if live != nil {
			live.Close()
		}
	}()
	upd := newUpdateStream(g, sources, seed)
	var mu sync.Mutex
	var applies []float64
	apply := func() {
		k := upd.next()
		upd.waitTurn(k)
		start := time.Now()
		res, err := live.ApplyBatch(liveOps(upd.ops(k)))
		d := time.Since(start)
		upd.finish(k, res.Epoch)
		mu.Lock()
		defer mu.Unlock()
		l.attempted++
		if err != nil {
			l.fail("direct ApplyBatch %d: %v", k, err)
			return
		}
		applies = append(applies, us(d))
	}
	before := scrapeReg(reg)
	var wg sync.WaitGroup
	appliers := runtime.NumCPU()
	for c := 0; c < appliers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < storeBatches; i += appliers {
				apply()
			}
		}()
	}
	wg.Wait()
	l.metrics["livegraph.apply_us"] = median(applies)
	if _, served := l.metrics["wal.fsync_us"]; !served {
		walMetrics(l.metrics, before, scrapeReg(reg), float64(len(applies)*batchOps))
	}

	start := time.Now()
	if err := live.CompactNow(); err != nil {
		l.fail("direct CompactNow: %v", err)
	}
	l.metrics["livegraph.compact_ms"] = ms(time.Since(start))
	// The compaction kicks a background checkpoint; apply batches until an
	// explicit CheckpointNow has a new epoch to persist.
	for try := 0; try < 8; try++ {
		apply()
		c0 := scrapeReg(reg).sum("wal_checkpoints_total")
		start = time.Now()
		if err := live.CheckpointNow(); err != nil {
			l.fail("direct CheckpointNow: %v", err)
			break
		}
		d := time.Since(start)
		if scrapeReg(reg).sum("wal_checkpoints_total") > c0 {
			l.metrics["livegraph.checkpoint_ms"] = ms(d)
			break
		}
	}
	// A suffix of batches after the checkpoint for recovery to replay.
	for i := 0; i < storeSuffix; i++ {
		apply()
	}
	epoch := live.Epoch()
	live.Close()
	start = time.Now()
	live, info, err := open(obs.NewRegistry())
	if err != nil {
		return fmt.Errorf("recovering the store: %w", err)
	}
	l.metrics["livegraph.recover_ms"] = ms(time.Since(start))
	l.attempted++
	if info.Epoch != epoch {
		l.fail("direct recovery reached epoch %d, the store had acked %d", info.Epoch, epoch)
	}
	return nil
}

// sameAnswer compares two result vectors of q: only the destination's
// entry for point-to-point searches (they stop early), else every entry.
func sameAnswer(spec *algo.Spec, q *server.Query, a, b []int64) bool {
	if spec.Kind == algo.KindPair {
		return a[q.Dst] == b[q.Dst]
	}
	return slices.Equal(a, b)
}

// walMetrics derives the WAL metrics from two scrapes around ops applied
// mutation ops.
func walMetrics(m map[string]float64, before, after prom, ops float64) {
	fsyncs := delta(before, after, "wal_fsync_duration_seconds_count")
	m["wal.fsync_us"] = 1e6 * ratio(delta(before, after, "wal_fsync_duration_seconds_sum"), fsyncs)
	m["wal.appends_per_fsync"] = ratio(delta(before, after, "wal_appends_total"), fsyncs)
	m["wal.bytes_per_op"] = ratio(delta(before, after, "wal_bytes_total"), ops)
}

func scrapeReg(reg *obs.Registry) prom {
	var b bytes.Buffer
	_ = reg.WriteText(&b) // writing to a bytes.Buffer cannot fail
	return parseProm(b.String())
}
