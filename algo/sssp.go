package algo

import (
	"context"

	"graphit"
)

// SSSPResult carries the output of a shortest-path style run.
type SSSPResult struct {
	// Dist[v] is the shortest distance from the source to v, or
	// graphit.Unreached if v is unreachable.
	Dist []int64
	// Stats are the engine's execution counters.
	Stats graphit.Stats
}

// SSSP computes single-source shortest paths with ∆-stepping (paper Figures
// 3 and 5–7): vertices are bucketed by floor(dist/∆) and processed in
// bucket order; the schedule selects eager/lazy bucketing, bucket fusion,
// ∆, and traversal direction. It is the library form of the DSL program in
// paper Figure 3.
func SSSP(g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return SSSPContext(context.Background(), g, src, sched)
}

// SSSPContext is SSSP under a context. On cancellation it returns the
// partial result computed so far (distances settled up to the cancelled
// round) together with ctx.Err().
func SSSPContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	return runDeltaStepping(ctx, deltaSteppingOp(g, src), sched)
}

// deltaSteppingOp builds the ∆-stepping operator from src over a fresh
// distance vector: the UDF from paper Figure 3, lines 7–10, which computes
// the relaxed distance and lowers dst's priority to it. That UDF is the
// canonical min-plus relaxation, so the operator declares RelaxMinPlus and
// push rounds run the engine's inlined kernel.
func deltaSteppingOp(g *graphit.Graph, src graphit.VertexID) *graphit.Ordered {
	return &graphit.Ordered{
		G:     g,
		Prio:  initDist(g.NumVertices(), src),
		Order: graphit.LowerFirst,
		Apply: func(s, d graphit.VertexID, w graphit.Weight, q *graphit.Queue) {
			q.UpdatePriorityMin(d, q.Priority(s)+int64(w))
		},
		RelaxMinPlus: true,
		Sources:      []graphit.VertexID{src},
	}
}

// runDeltaStepping runs op and wraps its distance vector, keeping the
// partial result of a halted run.
func runDeltaStepping(ctx context.Context, op *graphit.Ordered, sched graphit.Schedule) (*SSSPResult, error) {
	st, err := graphit.RunOrderedContext(ctx, op, sched)
	if err != nil && !halted(ctx, err) {
		return nil, err
	}
	return &SSSPResult{Dist: op.Prio, Stats: st}, err
}

// WBFS computes weighted breadth-first search: ∆-stepping specialized to
// ∆=1 for graphs with small positive integer weights (paper §6.1). Any ∆
// in the schedule is overridden.
func WBFS(g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return WBFSContext(context.Background(), g, src, sched)
}

// WBFSContext is WBFS under a context.
func WBFSContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return SSSPContext(ctx, g, src, sched.ConfigApplyPriorityUpdateDelta(1))
}

// PPSP computes a point-to-point shortest path with ∆-stepping plus early
// termination: the run halts on entering a bucket whose priority is at
// least the best distance already found for dst (paper §6.1).
func PPSP(g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	return PPSPContext(context.Background(), g, src, dst, sched)
}

// PPSPContext is PPSP under a context, returning the partial result and
// ctx.Err() on cancellation.
func PPSPContext(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	return runDeltaStepping(ctx, ppspOp(g, src, dst), sched)
}

// ppspOp is deltaSteppingOp plus PPSP's early-termination condition.
func ppspOp(g *graphit.Graph, src, dst graphit.VertexID) *graphit.Ordered {
	op := deltaSteppingOp(g, src)
	dist := op.Prio
	op.Stop = func(cur int64) bool {
		best := graphit.AtomicLoad(&dist[dst])
		return best != graphit.Unreached && cur >= best
	}
	return op
}
