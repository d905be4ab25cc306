package core

import (
	"context"
	"testing"

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
