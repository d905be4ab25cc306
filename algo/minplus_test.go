package algo

import (
	"context"
	"fmt"
	"testing"

	"graphit"
	"graphit/internal/core"
	"graphit/internal/faults"
)

// minPlusSchedules are the push schedules the engine's min-plus kernel runs
// under for the ∆-stepping family.
func minPlusSchedules() map[string]graphit.Schedule {
	base := graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(16)
	return map[string]graphit.Schedule{
		"eager_with_fusion": base.ConfigApplyPriorityUpdate("eager_with_fusion"),
		"eager_no_fusion":   base.ConfigApplyPriorityUpdate("eager_no_fusion"),
		"lazy_push":         base.ConfigApplyPriorityUpdate("lazy"),
		"lazy_hybrid":       base.ConfigApplyPriorityUpdate("lazy").ConfigApplyDirection("DensePull-SparsePush"),
	}
}

// minPlusQueries builds SSSP, PPSP and wBFS the way their wrappers do,
// returning the operator and the schedule the wrapper would run it under.
func minPlusQueries(g *graphit.Graph, src, dst graphit.VertexID) map[string]func(graphit.Schedule) (*graphit.Ordered, graphit.Schedule) {
	return map[string]func(graphit.Schedule) (*graphit.Ordered, graphit.Schedule){
		"sssp": func(s graphit.Schedule) (*graphit.Ordered, graphit.Schedule) { return deltaSteppingOp(g, src), s },
		"ppsp": func(s graphit.Schedule) (*graphit.Ordered, graphit.Schedule) { return ppspOp(g, src, dst), s },
		"wbfs": func(s graphit.Schedule) (*graphit.Ordered, graphit.Schedule) {
			return deltaSteppingOp(g, src), s.ConfigApplyPriorityUpdateDelta(1)
		},
	}
}

// TestMinPlusKernelMatchesApply: SSSP, PPSP and wBFS declare RelaxMinPlus;
// turning the declaration off (every edge through the Figure 3 UDF) must
// give identical distances on the road grid and on R-MAT, under every push
// schedule at 1 and 2 workers, and identical Stats at 1 worker.
func TestMinPlusKernelMatchesApply(t *testing.T) {
	const src, dst = 1, 200
	for gname, g := range testGraphs(t) {
		for qname, build := range minPlusQueries(g, src, dst) {
			for sname, sched := range minPlusSchedules() {
				for _, w := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/%s/%s/workers=%d", gname, qname, sname, w), func(t *testing.T) {
						var res [2]*SSSPResult
						for i, minPlus := range []bool{false, true} {
							op, s := build(sched.ConfigNumWorkers(w))
							if !op.RelaxMinPlus {
								t.Fatal("the wrapper's operator does not declare RelaxMinPlus")
							}
							op.RelaxMinPlus = minPlus
							r, err := runDeltaStepping(context.Background(), op, s)
							if err != nil {
								t.Fatalf("RelaxMinPlus=%v: %v", minPlus, err)
							}
							res[i] = r
						}
						for v := range res[0].Dist {
							if res[0].Dist[v] != res[1].Dist[v] {
								t.Fatalf("dist[%d]: Apply %d, min-plus %d", v, res[0].Dist[v], res[1].Dist[v])
							}
						}
						if w == 1 && res[0].Stats != res[1].Stats {
							t.Fatalf("1-worker Stats differ:\n Apply    %+v\n min-plus %+v", res[0].Stats, res[1].Stats)
						}
					})
				}
			}
		}
	}
}

// TestMinPlusKernelRetrySerialMatchesReference: a panic injected at a relax
// chunk can leave a round of the min-plus kernel half applied; under
// retry_serial the engine re-runs it serially and the public wrappers still
// return the reference distances.
func TestMinPlusKernelRetrySerialMatchesReference(t *testing.T) {
	const src, dst = 1, 200
	for gname, g := range testGraphs(t) {
		want, err := Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		runs := map[string]func(context.Context, graphit.Schedule) (*SSSPResult, error){
			"sssp": func(ctx context.Context, s graphit.Schedule) (*SSSPResult, error) { return SSSPContext(ctx, g, src, s) },
			"ppsp": func(ctx context.Context, s graphit.Schedule) (*SSSPResult, error) {
				return PPSPContext(ctx, g, src, dst, s)
			},
			"wbfs": func(ctx context.Context, s graphit.Schedule) (*SSSPResult, error) { return WBFSContext(ctx, g, src, s) },
		}
		for qname, run := range runs {
			for sname, sched := range minPlusSchedules() {
				for _, w := range []int{1, 2} {
					t.Run(fmt.Sprintf("%s/%s/%s/workers=%d", gname, qname, sname, w), func(t *testing.T) {
						// The second chunk checkpoint from round 3 on: past
						// the first chunk of a round wherever a round has
						// several, and on small lazy rounds the next round's.
						in := faults.New(faults.Trigger{
							Phase: core.PhaseRelaxChunk, Match: func(r int64) bool { return r >= 3 },
							Occurrence: 2, PanicValue: "injected relax fault",
						})
						s := sched.ConfigNumWorkers(w).ConfigOnFault("retry_serial")
						res, err := run(in.Context(context.Background()), s)
						if err != nil {
							t.Fatal(err)
						}
						if in.Fired(core.PhaseRelaxChunk) == 0 || res.Stats.Retries == 0 {
							t.Fatalf("the injected fault did not fire (fired %d, retries %d)", in.Fired(core.PhaseRelaxChunk), res.Stats.Retries)
						}
						if qname == "ppsp" {
							if res.Dist[dst] != want[dst] {
								t.Fatalf("dist[%d] = %d, want %d", dst, res.Dist[dst], want[dst])
							}
							return
						}
						for v := range want {
							if res.Dist[v] != want[v] {
								t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
							}
						}
					})
				}
			}
		}
	}
}
