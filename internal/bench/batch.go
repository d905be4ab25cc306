package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/qexec"
)

// batchK is the lane count the batch experiment compares at: the ISSUE's
// acceptance shape (8 same-schedule queries, sequential vs one shared run).
const batchK = 8

// BatchQuery measures the batched multi-source serving win on the road
// stand-in (RD-sim), three ways:
//
//   - sequential: batchK independent single-source ∆-stepping runs, back to
//     back — the cost floor a server pays without batching;
//   - multi: the same batchK sources as one shared k-lane run (one frontier,
//     one bucket structure, one edge sweep per round);
//   - qexec: batchK concurrent queries through a batching pipeline — the
//     end-to-end path graphd serves, windows and fan-out included.
//
// Lane results are checked element-wise equal against the independent runs
// before anything is timed; a mismatch fails the experiment. The report's
// qexec record carries the observed batch rates (windows, lanes per window)
// in Extra.
func BatchQuery(ctx context.Context, s Scale, opt PerfOptions) (*Table, *PerfReport, error) {
	opt.normalize()
	ds, err := Road(s)
	if err != nil {
		return nil, nil, err
	}
	d := ds[0]
	srcs := sources(d, batchK)
	sched := graphit.DefaultSchedule().
		ConfigApplyPriorityUpdate("lazy").
		ConfigApplyPriorityUpdateDelta(1 << d.BestDeltaExp)

	// Correctness gate: every lane of the shared run must equal its
	// independent single-source run, element for element.
	solo := make([]*algo.SSSPResult, batchK)
	for i, src := range srcs {
		if solo[i], err = algo.SSSPContext(ctx, d.Graph, src, sched); err != nil {
			return nil, nil, fmt.Errorf("bench: solo sssp src=%d: %w", src, err)
		}
	}
	multi, err := algo.SSSPMultiContext(ctx, d.Graph, srcs, sched)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: multi sssp: %w", err)
	}
	for l := range multi {
		for v := range multi[l].Dist {
			if multi[l].Dist[v] != solo[l].Dist[v] {
				return nil, nil, fmt.Errorf("bench: lane %d (src %d) diverges at vertex %d: multi %d != solo %d",
					l, srcs[l], v, multi[l].Dist[v], solo[l].Dist[v])
			}
		}
	}

	cases := []perfCase{
		{fmt.Sprintf("sssp-batch/sequential-%d", batchK), d.Name, func() (graphit.Stats, error) {
			var last graphit.Stats
			for _, src := range srcs {
				r, err := algo.SSSPContext(ctx, d.Graph, src, sched)
				if err != nil {
					return graphit.Stats{}, err
				}
				last = r.Stats
			}
			return last, nil
		}},
		{fmt.Sprintf("sssp-batch/multi-%dlane", batchK), d.Name, func() (graphit.Stats, error) {
			rs, err := algo.SSSPMultiContext(ctx, d.Graph, srcs, sched)
			if err != nil {
				return graphit.Stats{}, err
			}
			return rs[0].Stats, nil
		}},
	}

	rep := &PerfReport{
		Schema:    PerfSchema,
		PR:        opt.PR,
		Scale:     string(s),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Workers:   runtime.GOMAXPROCS(0),
	}
	t := &Table{
		Title:  fmt.Sprintf("Batched multi-source serving: %d same-schedule SSSP queries on %s", batchK, d.Name),
		Header: []string{"arm", "graph", "ns/op", "allocs/op", "B/op", "rounds"},
	}
	recs := make([]PerfRecord, 0, 3)
	for _, c := range cases {
		rec, err := measure(ctx, c, opt)
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, rec)
	}

	// End-to-end arm: the qexec pipeline with the batch stage on, one op =
	// batchK concurrent queries. The cache is off (repeat ops must run) and
	// the window is generous — the group seals the moment it fills anyway.
	pipe, err := qexec.New(qexec.Config{
		Graphs:        map[string]*graphit.Graph{d.Name: d.Graph},
		BatchWindow:   50 * time.Millisecond,
		BatchMaxLanes: batchK,
	})
	if err != nil {
		return nil, nil, err
	}
	defer pipe.Close(context.Background())
	qexecCase := perfCase{fmt.Sprintf("sssp-batch/qexec-%dx", batchK), d.Name, func() (graphit.Stats, error) {
		outs := make([]*qexec.Outcome, batchK)
		var wg sync.WaitGroup
		for i, src := range srcs {
			wg.Add(1)
			go func(i int, src graphit.VertexID) {
				defer wg.Done()
				outs[i] = pipe.Do(ctx, qexec.Request{
					Algo: "sssp", Graph: d.Name, Src: uint32(src),
					Strategy: "lazy", Delta: 1 << d.BestDeltaExp,
				})
			}(i, src)
		}
		wg.Wait()
		var st graphit.Stats
		for i, out := range outs {
			if out.Code != qexec.CodeOK {
				return graphit.Stats{}, fmt.Errorf("lane %d: %s: %v", i, out.Code, out.Err)
			}
			if out.Stats != nil {
				st = *out.Stats
			}
		}
		return st, nil
	}}
	qrec, err := measure(ctx, qexecCase, opt)
	if err != nil {
		return nil, nil, err
	}
	bst := pipe.Status().Batch
	qrec.Extra = map[string]float64{
		"batch_windows":    float64(bst.Windows),
		"batch_multi_runs": float64(bst.MultiRuns),
		"batch_lanes":      float64(bst.Lanes),
		"batch_solo":       float64(bst.Solo),
	}
	if bst.Windows > 0 {
		qrec.Extra["lanes_per_window"] = float64(bst.Lanes+bst.Solo) / float64(bst.Windows)
	}
	recs = append(recs, qrec)

	seq, ml := recs[0], recs[1]
	if ml.NsPerOp > 0 {
		speedup := float64(seq.NsPerOp) / float64(ml.NsPerOp)
		ml.Extra = map[string]float64{"speedup_vs_sequential": speedup}
		recs[1] = ml
		t.Note(fmt.Sprintf("multi-source run is %.2fx the sequential arm's throughput (lane results element-wise equal)", speedup))
	}
	if bst.Windows > 0 {
		t.Note(fmt.Sprintf("qexec batch stage: %d windows, %d multi-runs carrying %d lanes, %d solo",
			bst.Windows, bst.MultiRuns, bst.Lanes, bst.Solo))
	}

	for _, rec := range recs {
		rep.Records = append(rep.Records, rec)
		t.AddRow(rec.Name, rec.Graph,
			fmt.Sprintf("%d", rec.NsPerOp),
			fmt.Sprintf("%d", rec.AllocsPerOp),
			fmt.Sprintf("%d", rec.BytesPerOp),
			fmt.Sprintf("%d", rec.Rounds))
	}
	return t, rep, nil
}
