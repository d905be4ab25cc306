package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"graphit/internal/gen"
	"graphit/internal/graph"
	"graphit/internal/parallel"
)

// minPlusSchedules are the single-source push schedules the min-plus kernel
// runs under: both eager variants (processPush) and lazy SparsePush and
// Hybrid (pushRound; Hybrid's pull rounds keep calling Apply).
func minPlusSchedules() map[string]Config {
	mk := func(s Strategy, d Direction) Config {
		c := DefaultConfig()
		c.Strategy, c.Direction, c.Delta = s, d, 64
		return c
	}
	return map[string]Config{
		"eager_with_fusion": mk(EagerWithFusion, SparsePush),
		"eager_no_fusion":   mk(EagerNoFusion, SparsePush),
		"lazy_push":         mk(Lazy, SparsePush),
		"lazy_hybrid":       mk(Lazy, Hybrid),
	}
}

func minPlusGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	road, err := gen.Road(gen.RoadOptions{Rows: 30, Cols: 30, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.DefaultRMAT(10, 8, 42))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"road": road, "rmat": rmat}
}

// TestRelaxMinPlusMatchesApply: declaring RelaxMinPlus changes how push
// rounds relax edges, never what they compute. Distances are identical to
// the Apply path (and to Dijkstra) under every push schedule at 1 and 2
// workers; at 1 worker, where the run is deterministic, every Stats field
// is identical too — the kernel counts relaxations, processed vertices
// and inversions exactly as Apply → UpdatePriorityMin → record does.
func TestRelaxMinPlusMatchesApply(t *testing.T) {
	for gname, g := range minPlusGraphs(t) {
		const src = 1
		want := serialSSSP(g, src)
		for sname, cfg := range minPlusSchedules() {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", gname, sname, w), func(t *testing.T) {
					cfg.Workers = w
					var dists [2][]int64
					var stats [2]Stats
					for i, minPlus := range []bool{false, true} {
						op, dist := ssspOp(g, src, cfg)
						op.RelaxMinPlus = minPlus
						st, err := op.Run()
						if err != nil {
							t.Fatalf("RelaxMinPlus=%v: %v", minPlus, err)
						}
						dists[i], stats[i] = dist, st
					}
					for v := range want {
						if dists[0][v] != want[v] || dists[1][v] != want[v] {
							t.Fatalf("dist[%d]: Apply %d, min-plus %d, Dijkstra %d", v, dists[0][v], dists[1][v], want[v])
						}
					}
					if w == 1 && stats[0] != stats[1] {
						t.Fatalf("1-worker Stats differ:\n Apply    %+v\n min-plus %+v", stats[0], stats[1])
					}
				})
			}
		}
	}
}

// TestRelaxMinPlusFallsBackToApply: operators whose UDF the kernel cannot
// stand in for keep calling Apply even when they declare RelaxMinPlus —
// finalize-on-pop (a finished-vertex filter) and pull rounds — while plain
// push rounds never call it. The probe UDF counts its calls.
func TestRelaxMinPlusFallsBackToApply(t *testing.T) {
	g := minPlusGraphs(t)["road"]
	cases := map[string]func(*Ordered){
		"finalize_on_pop": func(op *Ordered) {
			op.FinalizeOnPop = true
			op.Cfg.Strategy = Lazy
		},
		"dense_pull": func(op *Ordered) {
			op.Cfg.Strategy = Lazy
			op.Cfg.Direction = DensePull
		},
	}
	for name, set := range cases {
		t.Run(name, func(t *testing.T) {
			op, _ := ssspOp(g, 1, DefaultConfig())
			apply := op.Apply
			var calls int64
			op.Apply = func(s, d uint32, w int32, u *Updater) {
				calls++
				apply(s, d, w, u)
			}
			op.RelaxMinPlus = true
			op.Cfg.Workers = 1
			set(op)
			st, err := op.Run()
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 || calls != st.Relaxations {
				t.Fatalf("Apply called %d times for %d relaxations", calls, st.Relaxations)
			}
		})
	}
	op, _ := ssspOp(g, 1, DefaultConfig())
	op.RelaxMinPlus = true
	var calls atomic.Int64
	op.Apply = func(s, d uint32, w int32, u *Updater) { calls.Add(1) }
	if _, err := op.Run(); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("eager push rounds called Apply %d times under RelaxMinPlus", calls.Load())
	}
}

// TestEagerSlabsCoverFrontierOnce: the owner slabs hand every frontier
// entry to exactly one worker, also for frontier sizes that do not divide
// evenly among the workers or into chunks. On converged priorities
// no relaxation wins, so each processed entry is one frontier entry and
// the relaxation count is the frontier's out-degree sum.
func TestEagerSlabsCoverFrontierOnce(t *testing.T) {
	g := minPlusGraphs(t)["road"]
	for _, w := range []int{1, 2, 3} {
		for _, f := range []int{1, 2, 7, 64, 65, 191, 900} {
			cfg := DefaultConfig()
			cfg.Strategy = EagerNoFusion
			cfg.Workers = w
			cfg.Grain = 8
			op, dist := ssspOp(g, 0, cfg)
			op.RelaxMinPlus = true
			if _, err := op.Run(); err != nil {
				t.Fatal(err)
			}
			// Every vertex in one bucket: the whole frontier is current.
			op.Cfg.Delta = 1 << 40
			frontier := make([]uint32, f)
			var degSum int64
			for i := range frontier {
				frontier[i] = uint32(i * 997 % len(dist))
				degSum += int64(g.OutDegree(frontier[i]))
			}
			ex := parallel.NewExecutor(w)
			e := op.buildEngine(new(scratch), ex, frontier[:1], &runCtl{})
			e.bid, e.frontier = 0, frontier
			var st Stats
			e.relax(&st)
			ex.Close()
			if st.Processed != int64(f) || st.Relaxations != degSum {
				t.Fatalf("workers=%d frontier=%d: processed %d (want %d), relaxations %d (want %d)",
					w, f, st.Processed, f, st.Relaxations, degSum)
			}
		}
	}
}
