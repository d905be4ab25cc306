package bench

import (
	"context"
	"fmt"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/autotune"
	"graphit/internal/core"
)

// sources returns deterministic start vertices spread over the graph,
// skipping sinks (zero out-degree) so every run does real work.
func sources(d *Dataset, k int) []graphit.VertexID {
	n := d.Graph.NumVertices()
	out := make([]graphit.VertexID, 0, k)
	for i := 0; i < k; i++ {
		v := graphit.VertexID((i*2654435761 + 17) % n)
		for d.Graph.OutDegree(v) == 0 {
			v = graphit.VertexID((int(v) + 1) % n)
		}
		out = append(out, v)
	}
	return out
}

// pairs returns deterministic (src, dst) pairs with a spread of distances.
func pairs(d *Dataset, k int) [][2]graphit.VertexID {
	n := d.Graph.NumVertices()
	out := make([][2]graphit.VertexID, 0, k)
	for i := 0; i < k; i++ {
		s := graphit.VertexID((i*2654435761 + 17) % n)
		for d.Graph.OutDegree(s) == 0 {
			s = graphit.VertexID((int(s) + 1) % n)
		}
		t := graphit.VertexID((i*40503 + n/2 + i*n/8) % n)
		out = append(out, [2]graphit.VertexID{s, t})
	}
	return out
}

func numTrials(s Scale) int {
	if s == ScaleSmall {
		return 1
	}
	return 3
}

// average runs f over trials and returns the mean duration plus the last
// run's stats (the counters are deterministic across sources only in
// aggregate; we keep one representative).
func average(rs []RunResult) RunResult {
	if len(rs) == 0 {
		return RunResult{Unsupported: true}
	}
	var total time.Duration
	for _, r := range rs {
		if r.Unsupported || r.Err != nil {
			return r
		}
		total += r.Time
	}
	out := rs[len(rs)-1]
	out.Time = total / time.Duration(len(rs))
	return out
}

// Fig1 reproduces Figure 1: speedup of ordered over unordered algorithms
// for SSSP and k-core.
// Fig1Row is one ordered-vs-unordered comparison.
type Fig1Row struct {
	Dataset, Algorithm string
	Ordered, Unordered RunResult
}

// WorkRatio is the machine-independent speedup signal: how much more work
// (edge relaxations / vertex scans) the unordered algorithm performs.
func (r Fig1Row) WorkRatio() float64 {
	return float64(r.Unordered.Stats.Relaxations) / float64(r.Ordered.Stats.Relaxations)
}

func Fig1(ctx context.Context, s Scale) (*Table, []Fig1Row, error) {
	t := &Table{
		Title:  "Figure 1: ordered vs unordered (time speedup and work ratio)",
		Header: []string{"graph", "algorithm", "ordered(s)", "unordered(s)", "speedup", "work ratio"},
	}
	ds, err := All(s)
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig1Row
	add := func(d *Dataset, algoName string, o, u RunResult) {
		r := Fig1Row{Dataset: d.Name, Algorithm: algoName, Ordered: o, Unordered: u}
		rows = append(rows, r)
		t.AddRow(d.Name, algoName, fmtDur(o.Time), fmtDur(u.Time),
			fmtRatio(u.Time.Seconds()/o.Time.Seconds()), fmtRatio(r.WorkRatio()))
	}
	for _, d := range ds {
		srcs := sources(d, numTrials(s))
		var ord, unord []RunResult
		for _, src := range srcs {
			ord = append(ord, SSSP(ctx, FwGraphIt, d, src))
			unord = append(unord, SSSP(ctx, FwUnordered, d, src))
		}
		add(d, "SSSP", average(ord), average(unord))
	}
	for _, d := range ds {
		add(d, "k-core", KCore(ctx, FwGraphIt, d), KCore(ctx, FwUnordered, d))
	}
	t.Note("paper reports 1.4x-4x for SSSP on social graphs, hundreds on roads, ~5-8x for k-core")
	t.Note("work ratio (relaxations unordered/ordered) is the machine-independent signal on few-core hosts")
	return t, rows, nil
}

// Fig4Cell is one framework/algorithm/graph slowdown (1.0 = fastest).
type Fig4Cell struct {
	Framework Framework
	Algorithm string
	Dataset   string
	Slowdown  float64
	Gray      bool
}

// Fig4 reproduces Figure 4: the heatmap of slowdowns versus the fastest
// framework for SSSP, PPSP, k-core and SetCover on LJ/TW/RD stand-ins.
func Fig4(ctx context.Context, s Scale) (*Table, []Fig4Cell, error) {
	t := &Table{
		Title:  "Figure 4: slowdown vs fastest framework (1.00 = fastest, -- = unsupported)",
		Header: []string{"algorithm", "graph", "GraphIt", "GAPBS", "Julienne", "Galois"},
	}
	ds, err := All(s)
	if err != nil {
		return nil, nil, err
	}
	fws := []Framework{FwGraphIt, FwGAPBS, FwJulienne, FwGalois}
	var cells []Fig4Cell
	run := func(algoName string, d *Dataset, f func(Framework) RunResult) {
		res := map[Framework]RunResult{}
		best := time.Duration(1<<63 - 1)
		for _, fw := range fws {
			r := f(fw)
			res[fw] = r
			if !r.Unsupported && r.Err == nil && r.Time < best {
				best = r.Time
			}
		}
		row := []string{algoName, d.Name}
		for _, fw := range fws {
			r := res[fw]
			if r.Unsupported || r.Err != nil {
				row = append(row, "--")
				cells = append(cells, Fig4Cell{fw, algoName, d.Name, 0, true})
				continue
			}
			sl := r.Time.Seconds() / best.Seconds()
			row = append(row, fmtRatio(sl))
			cells = append(cells, Fig4Cell{fw, algoName, d.Name, sl, false})
		}
		t.AddRow(row...)
	}
	for _, d := range ds {
		srcs := sources(d, numTrials(s))
		run("SSSP", d, func(fw Framework) RunResult {
			var rs []RunResult
			for _, src := range srcs {
				rs = append(rs, SSSP(ctx, fw, d, src))
			}
			return average(rs)
		})
	}
	for _, d := range ds {
		ps := pairs(d, numTrials(s))
		run("PPSP", d, func(fw Framework) RunResult {
			var rs []RunResult
			for _, p := range ps {
				rs = append(rs, PPSP(ctx, fw, d, p[0], p[1]))
			}
			return average(rs)
		})
	}
	for _, d := range ds {
		run("k-core", d, func(fw Framework) RunResult { return KCore(ctx, fw, d) })
	}
	for _, d := range ds {
		run("SetCover", d, func(fw Framework) RunResult { return SetCover(ctx, fw, d) })
	}
	return t, cells, nil
}

// Table4 reproduces Table 4: running times of all six algorithms across
// frameworks (ordered and unordered) and graphs.
func Table4(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 4: running time (seconds) per algorithm, framework, graph",
		Header: []string{"algorithm", "graph", "GraphIt", "GAPBS", "Julienne", "Galois", "Unordered"},
	}
	every, err := Everything(s)
	if err != nil {
		return nil, err
	}
	socials, err := SocialAll(s)
	if err != nil {
		return nil, err
	}
	roads, err := RoadAll(s)
	if err != nil {
		return nil, err
	}
	row := func(algoName string, d *Dataset, f func(Framework) RunResult) {
		cells := []string{algoName, d.Name}
		for _, fw := range Frameworks {
			cells = append(cells, fmtResult(f(fw)))
		}
		t.AddRow(cells...)
	}
	for _, d := range every {
		srcs := sources(d, numTrials(s))
		row("SSSP", d, func(fw Framework) RunResult {
			var rs []RunResult
			for _, src := range srcs {
				rs = append(rs, SSSP(ctx, fw, d, src))
			}
			return average(rs)
		})
	}
	for _, d := range every {
		ps := pairs(d, numTrials(s))
		row("PPSP", d, func(fw Framework) RunResult {
			var rs []RunResult
			for _, p := range ps {
				rs = append(rs, PPSP(ctx, fw, d, p[0], p[1]))
			}
			return average(rs)
		})
	}
	for _, d := range socials {
		srcs := sources(d, numTrials(s))
		row("wBFS†", d, func(fw Framework) RunResult {
			var rs []RunResult
			for _, src := range srcs {
				rs = append(rs, WBFS(ctx, fw, d, src))
			}
			return average(rs)
		})
	}
	for _, d := range roads {
		ps := pairs(d, numTrials(s))
		row("A*", d, func(fw Framework) RunResult {
			var rs []RunResult
			for _, p := range ps {
				rs = append(rs, AStar(ctx, fw, d, p[0], p[1]))
			}
			return average(rs)
		})
	}
	for _, d := range every {
		row("k-core", d, func(fw Framework) RunResult { return KCore(ctx, fw, d) })
	}
	for _, d := range every {
		row("SetCover", d, func(fw Framework) RunResult { return SetCover(ctx, fw, d) })
	}
	t.Note("† wBFS uses weights in [1, log n) as in Julienne")
	t.Note("frameworks are strategy stand-ins on a shared substrate (see DESIGN.md §3)")
	return t, nil
}

// Table6Row is the bucket-fusion ablation for one dataset.
type Table6Row struct {
	Dataset                   string
	WithTime, WithoutTime     time.Duration
	WithRounds, WithoutRounds int64
	FusedRounds               int64
}

// Table6 reproduces Table 6: running time and number of rounds for SSSP
// with and without bucket fusion.
func Table6(ctx context.Context, s Scale) (*Table, []Table6Row, error) {
	t := &Table{
		Title:  "Table 6: bucket fusion ablation for SSSP (time and synchronized rounds)",
		Header: []string{"graph", "with fusion", "rounds", "without fusion", "rounds", "round reduction"},
	}
	ds, err := table6Datasets(s)
	if err != nil {
		return nil, nil, err
	}
	var rows []Table6Row
	for _, d := range ds {
		srcs := sources(d, numTrials(s))
		var withT, withoutT time.Duration
		var withR, withoutR, fused int64
		for _, src := range srcs {
			w := SSSP(ctx, FwGraphIt, d, src)
			wo := SSSP(ctx, FwGAPBS, d, src)
			withT += w.Time
			withoutT += wo.Time
			withR += w.Stats.Rounds
			fused += w.Stats.FusedRounds
			withoutR += wo.Stats.Rounds
		}
		k := time.Duration(len(srcs))
		r := Table6Row{
			Dataset:  d.Name,
			WithTime: withT / k, WithoutTime: withoutT / k,
			WithRounds: withR / int64(len(srcs)), WithoutRounds: withoutR / int64(len(srcs)),
			FusedRounds: fused / int64(len(srcs)),
		}
		rows = append(rows, r)
		t.AddRow(d.Name,
			fmtDur(r.WithTime), fmt.Sprintf("%d", r.WithRounds),
			fmtDur(r.WithoutTime), fmt.Sprintf("%d", r.WithoutRounds),
			fmtRatio(float64(r.WithoutRounds)/float64(r.WithRounds)))
	}
	t.Note("paper: RoadUSA 48407 -> 1069 rounds (45x); social graphs ~1.3-3x")
	return t, rows, nil
}

// Table7 reproduces Table 7: eager versus lazy bucket updates for k-core
// and SSSP.
func Table7(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 7: eager vs lazy bucket update (seconds; k-core lazy uses constant-sum reduction)",
		Header: []string{"graph", "k-core eager", "k-core lazy", "SSSP eager", "SSSP lazy"},
	}
	ds, err := table7Datasets(s)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		g, err := d.Symmetrized()
		if err != nil {
			return nil, err
		}
		eagerKC := timed(func() (graphit.Stats, error) {
			r, err := algo.KCoreContext(ctx, g, graphit.DefaultSchedule().ConfigApplyPriorityUpdate("eager_no_fusion"))
			if err != nil {
				return graphit.Stats{}, err
			}
			return r.Stats, nil
		})
		lazyKC := KCore(ctx, FwGraphIt, d) // lazy_constant_sum
		srcs := sources(d, numTrials(s))
		var eagerS, lazyS []RunResult
		for _, src := range srcs {
			eagerS = append(eagerS, SSSP(ctx, FwGraphIt, d, src)) // eager (with fusion)
			lazyS = append(lazyS, SSSP(ctx, FwJulienne, d, src))  // lazy
		}
		es, ls := average(eagerS), average(lazyS)
		t.AddRow(d.Name, fmtDur(eagerKC.Time), fmtDur(lazyKC.Time), fmtDur(es.Time), fmtDur(ls.Time))
	}
	t.Note("paper: lazy wins k-core by 1.1-4.3x (redundant updates); eager wins SSSP by 2-43x")
	return t, nil
}

// Fig11 reproduces Figure 11: SSSP scalability across worker counts. On a
// single-core host the wall-clock series is flat; the table therefore also
// reports rounds (constant) and relaxations as the machine-independent
// signal, and the sweep exercises the real multi-worker code paths.
func Fig11(ctx context.Context, s Scale, workers []int) (*Table, error) {
	t := &Table{
		Title:  "Figure 11: SSSP scalability (time per worker count)",
		Header: []string{"graph", "framework", "workers", "time(s)", "rounds"},
	}
	if len(workers) == 0 {
		workers = []int{1, 2, 4, 8}
	}
	ds, err := All(s)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		src := sources(d, 1)[0]
		for _, fw := range []Framework{FwGraphIt, FwGAPBS, FwJulienne} {
			sched, _ := ssspSchedule(fw, d)
			for _, w := range workers {
				r := orderedSSSP(ctx, d, src, sched.ConfigNumWorkers(w))
				t.AddRow(d.Name, string(fw), fmt.Sprintf("%d", w), fmtResult(r),
					fmt.Sprintf("%d", r.Stats.Rounds))
			}
		}
	}
	t.Note("this host exposes a single core; the sweep exercises the multi-worker code paths, wall-clock shape requires real cores")
	return t, nil
}

// DeltaSweep reproduces the §6.2 ∆-selection analysis: SSSP time across
// coarsening factors, showing small deltas win on social networks and
// large deltas on road networks.
func DeltaSweep(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Delta selection (paper §6.2): SSSP time across coarsening factors",
		Header: []string{"graph", "delta", "time(s)", "rounds"},
	}
	ds, err := All(s)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		src := sources(d, 1)[0]
		for _, exp := range []int{0, 2, 4, 7, 9, 11, 13, 15} {
			sched := graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate("eager_with_fusion").
				ConfigApplyPriorityUpdateDelta(1 << exp)
			r := timed(func() (graphit.Stats, error) {
				res, err := algo.SSSPContext(ctx, d.Graph, src, sched)
				if err != nil {
					return graphit.Stats{}, err
				}
				return res.Stats, nil
			})
			t.AddRow(d.Name, fmt.Sprintf("2^%d", exp), fmtResult(r), fmt.Sprintf("%d", r.Stats.Rounds))
		}
	}
	t.Note("paper: best social deltas 1-100, best road deltas 2^13-2^17 (at continent scale)")
	return t, nil
}

// EngineReuse measures the unified engine's per-run scratch pooling: a
// stream of back-to-back SSSP queries with sync.Pool buffer reuse enabled
// versus disabled (every run allocating fresh frontier slices, updaters,
// and dedup flags). The wall-clock delta is the allocation and GC cost the
// pool removes; BenchmarkEngineReuse in internal/core reports the same
// pair with allocation counts.
func EngineReuse(ctx context.Context, s Scale) (*Table, error) {
	t := &Table{
		Title:  "Engine scratch reuse: back-to-back SSSP queries, pooled vs fresh buffers",
		Header: []string{"graph", "queries", "pooled(s)", "fresh(s)", "fresh/pooled"},
	}
	const queries = 8
	ds, err := All(s)
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		srcs := sources(d, queries)
		runAll := func() time.Duration {
			start := time.Now()
			for _, src := range srcs {
				if r := SSSP(ctx, FwGraphIt, d, src); r.Err != nil {
					return 0
				}
			}
			return time.Since(start)
		}
		prev := graphit.SetEnginePooling(true)
		runAll() // warm the pool so the pooled series measures steady state
		pooled := runAll()
		graphit.SetEnginePooling(false)
		fresh := runAll()
		graphit.SetEnginePooling(prev)
		if pooled == 0 || fresh == 0 {
			t.AddRow(d.Name, fmt.Sprintf("%d", queries), "err", "err", "")
			continue
		}
		t.AddRow(d.Name, fmt.Sprintf("%d", queries), fmtDur(pooled), fmtDur(fresh),
			fmtRatio(fresh.Seconds()/pooled.Seconds()))
	}
	t.Note("pooling recycles per-run engine scratch across queries (sync.Pool); fresh allocates every run")
	return t, nil
}

// Autotune reproduces the §5.3/§6.2 autotuning experiment: the stochastic
// schedule search should land within a few percent of the hand-tuned
// schedule within the paper's 30-40 trial budget.
func Autotune(ctx context.Context, s Scale) (*Table, float64, error) {
	t := &Table{
		Title:  "Autotuner vs hand-tuned schedule (SSSP)",
		Header: []string{"graph", "hand-tuned(s)", "autotuned(s)", "ratio", "trials", "best schedule"},
	}
	ds, err := All(s)
	if err != nil {
		return nil, 0, err
	}
	worst := 0.0
	for _, d := range ds {
		src := sources(d, 1)[0]
		hand := average([]RunResult{SSSP(ctx, FwGraphIt, d, src), SSSP(ctx, FwGraphIt, d, src)})
		measure := func(ctx context.Context, cfg core.Config) (time.Duration, error) {
			sched := graphit.DefaultSchedule().
				ConfigApplyPriorityUpdate(cfg.Strategy.String()).
				ConfigApplyPriorityUpdateDelta(cfg.Delta).
				ConfigBucketFusionThreshold(cfg.FusionThreshold).
				ConfigNumBuckets(cfg.NumBuckets)
			start := time.Now()
			if _, err := algo.SSSPContext(ctx, d.Graph, src, sched); err != nil {
				return 0, err
			}
			return time.Since(start), nil
		}
		res, err := autotune.Tune(ctx, autotune.DefaultSpace(), measure, autotune.Options{
			MaxTrials: 40, Repeats: 2, Seed: 7,
		})
		if err != nil {
			t.AddRow(d.Name, fmtDur(hand.Time), "err", err.Error(), "", "")
			continue
		}
		ratio := res.Cost.Seconds() / hand.Time.Seconds()
		if ratio > worst {
			worst = ratio
		}
		t.AddRow(d.Name, fmtDur(hand.Time), fmtDur(res.Cost), fmtRatio(ratio),
			fmt.Sprintf("%d", len(res.Trials)), res.Best.String())
	}
	t.Note("paper: autotuned schedules within 5%% of hand-tuned after 30-40 trials")
	return t, worst, nil
}
