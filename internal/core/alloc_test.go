package core

import (
	"context"
	"fmt"
	"testing"

	"graphit/internal/bucket"
	"graphit/internal/gen"
	"graphit/internal/parallel"
)

// warmLazyEngine runs an SSSP to completion on a single-worker lazy engine
// and hands back its traversal plus a frontier to replay: the priorities are
// converged, so replaying relax on that frontier exercises the full
// steady-state round machinery (dense maps, sweep, pack, dedup reset)
// without winning any update.
func warmLazyEngine(t *testing.T, dir Direction) (*lazyTrav, []uint32) {
	t.Helper()
	g := lineGraph(t, 4000)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.Direction = dir
	cfg.Delta = 8
	cfg.Workers = 1
	op, _ := ssspOp(g, 0, cfg)
	op.Cfg.normalize()
	if err := op.validate(); err != nil {
		t.Fatal(err)
	}
	active, err := op.initialActive()
	if err != nil {
		t.Fatal(err)
	}
	ex := parallel.NewExecutor(1)
	sc := new(scratch)
	ctl := &runCtl{}
	e := op.buildEngine(sc, ex, active, ctl)
	var st Stats
	if fault, err := e.run(context.Background(), NopTracer{}, &st); fault != nil || err != nil {
		t.Fatalf("warmup run: fault=%v err=%v", fault, err)
	}
	if st.Rounds == 0 {
		t.Fatal("warmup run made no rounds")
	}
	tr, ok := e.trav.(*lazyTrav)
	if !ok {
		t.Fatalf("expected *lazyTrav, got %T", e.trav)
	}
	frontier := make([]uint32, 64)
	for i := range frontier {
		frontier[i] = uint32(i * 7)
	}
	return tr, frontier
}

// TestLazyPullSteadyStateAllocs: a warmed-up DensePull round — dense
// frontier set/clear, the full in-edge sweep, and the changed-set pack —
// performs zero heap allocation. This is the ISSUE 4 acceptance bar: the
// pack previously materialized an O(n) iota slice plus O(n) flags each
// round (~12n bytes of garbage).
func TestLazyPullSteadyStateAllocs(t *testing.T) {
	tr, frontier := warmLazyEngine(t, DensePull)
	allocs := testing.AllocsPerRun(100, func() {
		tr.relax(1, 8, frontier)
	})
	if allocs != 0 {
		t.Errorf("steady-state pull round allocates %.0f times, want 0", allocs)
	}
}

// TestLazyPushSteadyStateAllocs: the SparsePush counterpart — per-worker
// update buffers, CAS dedup reset, and the update collection all reuse
// run-owned scratch.
func TestLazyPushSteadyStateAllocs(t *testing.T) {
	tr, frontier := warmLazyEngine(t, SparsePush)
	allocs := testing.AllocsPerRun(100, func() {
		tr.relax(1, 8, frontier)
	})
	if allocs != 0 {
		t.Errorf("steady-state push round allocates %.0f times, want 0", allocs)
	}
}

// TestEagerFusionSteadyStateAllocs: a warmed eager_with_fusion engine
// replays its rounds without touching the heap, at 1 and 2 workers. Two
// replays: the converged one re-extracts a frontier and sweeps it with
// every relaxation losing (bin gather, pooled parallel region, min-plus
// kernel); the reopened one resets the far half of the distances and
// drains the engine again, so wins, bin inserts and fused iterations all
// run on recycled bin buffers.
func TestEagerFusionSteadyStateAllocs(t *testing.T) {
	g, err := gen.Road(gen.RoadOptions{Rows: 40, Cols: 40, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Delta = 256
			cfg.Workers = w
			op, dist := ssspOp(g, 0, cfg)
			op.RelaxMinPlus = true
			op.Cfg.normalize()
			active, err := op.initialActive()
			if err != nil {
				t.Fatal(err)
			}
			ex := parallel.NewExecutor(w)
			defer ex.Close()
			e := op.buildEngine(new(scratch), ex, active, &runCtl{})
			var st Stats
			if fault, err := e.run(context.Background(), NopTracer{}, &st); fault != nil || err != nil {
				t.Fatalf("warmup run: fault=%v err=%v", fault, err)
			}
			src := e.src.(*eagerBins)
			converged := append([]int64(nil), dist...)
			median := converged[len(converged)/2]
			reopened := append([]int64(nil), converged...)
			for v, d := range reopened {
				if d > median {
					reopened[v] = Unreached
				}
			}
			// drain replays the engine's round loop from the seeded bins.
			drain := func(prio []int64, seed func(v int, d int64) bool) {
				copy(dist, prio)
				src.cur = 0
				for v, d := range prio {
					if seed(v, d) {
						src.bins[v%w].Insert(op.bucketOf(d), uint32(v))
					}
				}
				for {
					e.bid, e.frontier = src.next()
					if e.bid == bucket.NullBkt {
						return
					}
					e.relax(&st)
				}
			}
			replays := map[string]func(){
				"converged": func() {
					drain(converged, func(v int, d int64) bool { return v%7 == 0 })
				},
				"reopened": func() {
					drain(reopened, func(v int, d int64) bool { return d <= median })
				},
			}
			for name, replay := range replays {
				// Warm the free lists for this replay's shape: a recycled
				// buffer may back a bigger bin than last time and grow, so
				// capacities settle over a few replays.
				for i := 0; i < 50; i++ {
					replay()
				}
				allocs := testing.AllocsPerRun(20, replay)
				if allocs != 0 {
					t.Errorf("%s replay allocates %.0f times per run, want 0", name, allocs)
				}
				for v := range dist {
					if dist[v] != converged[v] {
						t.Fatalf("%s replay: dist[%d] = %d, want %d", name, v, dist[v], converged[v])
					}
				}
			}
			if st.FusedRounds == 0 {
				t.Fatal("no fused iterations: the replays did not exercise fusion")
			}
		})
	}
}

// TestPullRoundAbortSkipsPack: once a watchdog/cancel abort is observed, the
// engine discards the round's update set, so pullRound must return before
// the O(n) pack instead of packing a result nobody reads. The injected
// abort fires at the sweep's first chunk checkpoint; a packed (non-nil,
// non-empty) result would prove the abort path still paid for the pack.
func TestPullRoundAbortSkipsPack(t *testing.T) {
	g := lineGraph(t, 64)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	cfg.Direction = DensePull
	cfg.Workers = 1
	op, _ := ssspOp(g, 0, cfg)
	op.Cfg.normalize()
	if err := op.validate(); err != nil {
		t.Fatal(err)
	}
	active, err := op.initialActive()
	if err != nil {
		t.Fatal(err)
	}
	ex := parallel.NewExecutor(1)
	ctl := &runCtl{}
	// Deterministic fault injection: abort (as the watchdog would) at the
	// first relax chunk checkpoint of the sweep.
	ctl.hook = func(phase string, round int64, worker int) {
		if phase == PhaseRelaxChunk {
			ctl.abort(abortTimeout)
		}
	}
	e := op.buildEngine(new(scratch), ex, active, ctl)
	tr := e.trav.(*lazyTrav)
	// Un-aborted baseline: the first round's pull pack yields the updated
	// set (the source's neighbor), proving the frontier genuinely produces
	// updates when the round completes.
	updated, pull, aborted := tr.relax(0, 0, active)
	if !pull {
		t.Fatal("DensePull round did not pull")
	}
	if !aborted {
		t.Fatal("injected abort was not observed by the sweep")
	}
	if updated != nil {
		t.Fatalf("aborted pull round returned a packed update set (%d ids); the pack must be skipped", len(updated))
	}
	// Control arm: same engine state, abort cleared — the round completes
	// and the pack runs.
	ctl.hook = nil
	ctl.reset()
	updated, _, aborted = tr.relax(0, 0, active)
	if aborted {
		t.Fatal("control round aborted unexpectedly")
	}
	if len(updated) == 0 {
		t.Fatal("control round produced no updates; the abort assertion above proved nothing")
	}
}
