package codegen

import (
	"fmt"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/core"
	"graphit/internal/lang"
)

// runExternLoop executes an extern-driven ordered loop (the escape hatch
// the paper's SetCover uses): each round dequeues a bucket and applies
// host-bound extern functions to its vertices under lazy bucketing, on the
// loop label's schedule inside the engine's envelope (core.RunLoop).
//
//   - applyExtern(f): f(v) is called for every dequeued vertex (parallel;
//     the host function must be safe for concurrent use).
//   - applyExternReduce(f): f(v) returns the vertex's new priority; changed
//     vertices are re-bucketed (INT_MIN / INT_MAX mark removal).
func (env *execEnv) runExternLoop() (core.Stats, error) {
	pq := env.plan.Checked.PQ
	prio := env.vectors[pq.PriorityVector]
	if pq.AllowCoarsening {
		return core.Stats{}, fmt.Errorf("codegen: extern-driven loops do not support priority coarsening")
	}
	order := bucket.Increasing
	null := core.Unreached
	if !pq.LowerFirst {
		order = bucket.Decreasing
		null = core.NullMax
	}
	bktOf := func(v uint32) int64 {
		if p := prio[v]; p != null {
			return p
		}
		return bucket.NullBkt
	}
	// Resolve the extern binding for each loop statement once.
	type phase struct {
		fn     ExternFunc
		reduce bool
	}
	var phases []phase
	for _, s := range env.plan.Analysis.Loop.While.Body[1:] {
		if ls, ok := s.(*lang.LabeledStmt); ok {
			s = ls.S
		}
		es, ok := s.(*lang.ExprStmt)
		if !ok {
			continue // delete bucket
		}
		mc := es.E.(*lang.MethodCallExpr)
		name := mc.Args[0].(*lang.IdentExpr).Name
		fn := env.externs[name]
		if fn == nil {
			return core.Stats{}, fmt.Errorf("codegen: extern func %q is not bound", name)
		}
		phases = append(phases, phase{fn: fn, reduce: mc.Method == "applyExternReduce"})
	}

	loop := env.plan.Analysis.Loop
	cfg := env.plan.Schedules.Get(loop.Label).Config()
	info := core.RunInfo{
		Strategy:    core.Lazy.String(),
		NumVertices: env.g.NumVertices(),
		NumEdges:    int64(env.g.NumEdges()),
	}
	// The priority vector is the loop's only state the runtime owns (the
	// host externs keep their own), so an attempt resumes from its current
	// contents.
	var lz *bucket.Lazy
	st, err := core.RunLoop(env.ctx, cfg, info, func(workers int) core.Loop {
		lz = bucket.NewLazy(len(prio), order, cfg.NumBuckets, bktOf)
		var bid int64
		var verts, updated []uint32
		outs := make([][]uint32, workers)
		return core.Loop{
			Next: func() bool {
				bid, verts = lz.Next()
				return bid != bucket.NullBkt
			},
			Round: func(r *core.Round) {
				r.Bucket, r.Frontier = bid, len(verts)
				updated = updated[:0]
				for _, ph := range phases {
					if !ph.reduce {
						r.ForChunks(len(verts), func(lo, hi, _ int) {
							for _, v := range verts[lo:hi] {
								ph.fn(int64(v))
							}
						})
						r.Stats.GlobalSyncs++
						continue
					}
					r.ForChunks(len(verts), func(lo, hi, worker int) {
						for _, v := range verts[lo:hi] {
							np := ph.fn(int64(v))
							if np == atomicutil.Load(&prio[v]) {
								continue
							}
							atomicutil.Store(&prio[v], np)
							if np != null {
								outs[worker] = append(outs[worker], v)
							}
						}
					})
					for i := range outs {
						updated = append(updated, outs[i]...)
						outs[i] = outs[i][:0]
					}
					r.Stats.GlobalSyncs++
				}
				r.Stats.Processed += int64(len(verts))
				lz.UpdateBuckets(updated)
			},
		}
	})
	st.BucketInserts = lz.Inserts
	st.WindowAdvances = lz.Rebuckets
	return st, err
}
