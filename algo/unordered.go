package algo

import (
	"context"
	"fmt"
	"sync/atomic"

	"graphit"
	"graphit/internal/atomicutil"
	"graphit/internal/core"
)

// BellmanFord computes single-source shortest paths with the unordered
// frontier-based Bellman-Ford algorithm, the Ligra / unordered-GraphIt
// baseline of the paper's Figure 1 and Table 4: every round relaxes all
// out-edges of the entire active frontier regardless of priority,
// performing redundant work that ∆-stepping avoids.
func BellmanFord(g *graphit.Graph, src graphit.VertexID) (*SSSPResult, error) {
	return BellmanFordContext(context.Background(), g, src, graphit.DefaultSchedule())
}

// BellmanFordContext is BellmanFord under a context and a schedule: the run
// executes on the schedule's worker count inside the engine's fault
// envelope (core.RunLoop), and cancellation is checked at every round
// barrier, returning the partial distance vector together with ctx.Err().
// The schedule's priority-update options do not apply.
func BellmanFordContext(ctx context.Context, g *graphit.Graph, src graphit.VertexID, sched graphit.Schedule) (*SSSPResult, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	var dist []int64
	st, err := core.RunLoop(ctx, cfg, loopInfo("unordered", g, 1), func(workers int) core.Loop {
		dist = initDist(n, src)
		dedup := atomicutil.NewFlags(n)
		frontier := []uint32{src}
		outs := make([][]uint32, workers)
		return core.Loop{
			Next: func() bool { return len(frontier) > 0 },
			Round: func(r *core.Round) {
				r.Frontier = len(frontier)
				r.Stats.GlobalSyncs++
				var relax atomic.Int64
				r.ForChunks(len(frontier), func(lo, hi, worker int) {
					var local int64
					for _, s := range frontier[lo:hi] {
						ds := atomicutil.Load(&dist[s])
						neigh := g.OutNeigh(s)
						wts := g.OutWts(s)
						for i, d := range neigh {
							local++
							if atomicutil.WriteMin(&dist[d], ds+int64(wts[i])) && dedup.TrySet(d) {
								outs[worker] = append(outs[worker], d)
							}
						}
					}
					relax.Add(local)
				})
				r.Stats.Relaxations += relax.Load()
				var next []uint32
				for i := range outs {
					next = append(next, outs[i]...)
					outs[i] = outs[i][:0]
				}
				dedup.ResetList(next)
				r.Stats.Processed += int64(len(frontier))
				frontier = next
			},
		}
	})
	return &SSSPResult{Dist: dist, Stats: st}, err
}

// UnorderedKCore computes coreness with the unordered peeling baseline
// (Figure 1): for each successive k it repeatedly scans all remaining
// vertices for those with induced degree <= k, without any bucketing, so
// every peel level pays a full-vertex-set scan.
func UnorderedKCore(g *graphit.Graph) (*KCoreResult, error) {
	return UnorderedKCoreContext(context.Background(), g, graphit.DefaultSchedule())
}

// UnorderedKCoreContext is UnorderedKCore under a context and a schedule,
// run like BellmanFordContext: cancellation is checked at every peel round
// and returns the partially peeled coreness vector together with
// ctx.Err().
func UnorderedKCoreContext(ctx context.Context, g *graphit.Graph, sched graphit.Schedule) (*KCoreResult, error) {
	if !g.Symmetric() {
		return nil, fmt.Errorf("algo: k-core requires a symmetrized graph")
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	n := g.NumVertices()
	var coreness []int64
	st, err := core.RunLoop(ctx, cfg, loopInfo("unordered", g, n), func(int) core.Loop {
		deg := make([]int64, n)
		alive := make([]bool, n)
		maxDeg := int64(0)
		for v := 0; v < n; v++ {
			deg[v] = int64(g.OutDegree(graphit.VertexID(v)))
			alive[v] = true
			if deg[v] > maxDeg {
				maxDeg = deg[v]
			}
		}
		coreness = make([]int64, n)
		remaining := n
		// Each level k rescans until a scan peels nothing; a new level
		// starts only while vertices remain.
		k, newLevel := int64(0), true
		return core.Loop{
			Next: func() bool { return !newLevel || (k <= maxDeg && remaining > 0) },
			Round: func(r *core.Round) {
				r.Bucket = k
				r.Stats.GlobalSyncs++
				// Full scan: collect alive vertices with degree <= k.
				r.Stats.Relaxations += int64(n) // scan cost: one check per vertex
				peel := r.Filter(n, func(v int) bool { return alive[v] && deg[v] <= k })
				r.Frontier = len(peel)
				newLevel = len(peel) == 0
				if newLevel {
					k++
					return
				}
				for _, v := range peel {
					alive[v] = false
					coreness[v] = k
				}
				r.ForChunks(len(peel), func(lo, hi, _ int) {
					for _, v := range peel[lo:hi] {
						for _, d := range g.OutNeigh(v) {
							if alive[d] {
								atomic.AddInt64(&deg[d], -1)
							}
						}
					}
				})
				remaining -= len(peel)
				r.Stats.Processed += int64(len(peel))
			},
		}
	})
	return &KCoreResult{Coreness: coreness, Stats: st}, err
}

// loopInfo is the trace header of a core.RunLoop run on g that starts
// from frontier active items; strategy names its bucketing ("lazy") or
// the lack of it ("unordered").
func loopInfo(strategy string, g *graphit.Graph, frontier int) core.RunInfo {
	return core.RunInfo{
		Strategy:    strategy,
		NumVertices: g.NumVertices(),
		NumEdges:    int64(g.NumEdges()),
		Frontier:    frontier,
	}
}
