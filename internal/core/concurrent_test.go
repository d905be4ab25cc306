package core

import (
	"context"
	"sync"
	"testing"

	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

// TestConcurrentRunsDifferentWorkerCounts is the regression test for the
// global worker-count race: several RunContext calls execute concurrently,
// each with a different Cfg.Workers, across all four strategies. Before the
// per-run executor, the engine installed its worker count process-wide, so
// a narrow run could shrink the count under a wide run
// mid-flight and index per-worker state out of range (or lose vertices).
// Run under -race in CI; every run must also match its serial result.
func TestConcurrentRunsDifferentWorkerCounts(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	type job struct {
		strategy Strategy
		workers  int
	}
	var jobs []job
	for _, s := range []Strategy{EagerWithFusion, EagerNoFusion, Lazy, LazyConstantSum} {
		for _, w := range []int{1, 2, 3, 7, 8} {
			jobs = append(jobs, job{s, w})
		}
	}

	// Serial reference results, one per strategy, computed up front.
	wantSSSP := map[Strategy][]int64{}
	for _, s := range []Strategy{EagerWithFusion, EagerNoFusion, Lazy} {
		g := randomGraph(42)
		op, dist := ssspOp(g, 2, Config{Strategy: s, Delta: 4, Workers: 1})
		if _, err := op.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		wantSSSP[s] = dist
	}
	refOp, wantCore := kcoreOp(t, 42, Config{Strategy: LazyConstantSum, Workers: 1})
	if _, err := refOp.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	const repeats = 4 // interleave several waves to stress the executor pool
	var wg sync.WaitGroup
	errc := make(chan error, len(jobs)*repeats)
	for r := 0; r < repeats; r++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				var got, want []int64
				var op *Ordered
				if j.strategy == LazyConstantSum {
					op, got = kcoreOp(t, 42, Config{Strategy: LazyConstantSum, Workers: j.workers})
					want = wantCore
				} else {
					g := randomGraph(42)
					op, got = ssspOp(g, 2, Config{Strategy: j.strategy, Delta: 4, Workers: j.workers})
					want = wantSSSP[j.strategy]
				}
				if _, err := op.RunContext(context.Background()); err != nil {
					errc <- err
					return
				}
				for v := range want {
					if got[v] != want[v] {
						t.Errorf("%v workers=%d: prio[%d]=%d, serial gave %d",
							j.strategy, j.workers, v, got[v], want[v])
						return
					}
				}
			}(j)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestDuplicateSourcesDeduplicated: repeating a vertex in Sources must not
// seed it into the initial frontier more than once. Before deduplication a
// duplicated source was processed once per copy in the first round,
// inflating Processed/Relaxations (and, with FinalizeOnPop, double-counting
// against finalized state).
func TestDuplicateSourcesDeduplicated(t *testing.T) {
	for _, s := range []Strategy{EagerWithFusion, EagerNoFusion, Lazy} {
		t.Run(s.String(), func(t *testing.T) {
			g := randomGraph(7)
			op1, dist1 := ssspOp(g, 3, Config{Strategy: s})
			st1, err := op1.Run()
			if err != nil {
				t.Fatal(err)
			}

			opN, distN := ssspOp(g, 3, Config{Strategy: s})
			opN.Sources = []uint32{3, 3, 3}
			stN, err := opN.Run()
			if err != nil {
				t.Fatal(err)
			}

			if st1 != stN {
				t.Errorf("duplicate sources changed stats:\n single %+v\n triple %+v", st1, stN)
			}
			for v := range dist1 {
				if distN[v] != dist1[v] {
					t.Fatalf("dist[%d] = %d with duplicates, %d without", v, distN[v], dist1[v])
				}
			}
		})
	}
	t.Run("lazy_constant_sum", func(t *testing.T) {
		op1, core1 := kcoreOp(t, 7, Config{Strategy: LazyConstantSum})
		op1.Sources = []uint32{5}
		st1, err := op1.Run()
		if err != nil {
			t.Fatal(err)
		}
		opN, coreN := kcoreOp(t, 7, Config{Strategy: LazyConstantSum})
		opN.Sources = []uint32{5, 5, 5, 5}
		stN, err := opN.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st1 != stN {
			t.Errorf("duplicate sources changed stats:\n single %+v\n triple %+v", st1, stN)
		}
		for v := range core1 {
			if coreN[v] != core1[v] {
				t.Fatalf("coreness[%d] = %d with duplicates, %d without", v, coreN[v], core1[v])
			}
		}
	})
}

// TestOutOfRangeSourceRejected: a source id beyond the priority vector is a
// validation error, not a panic.
func TestOutOfRangeSourceRejected(t *testing.T) {
	g := lineGraph(t, 8)
	op, _ := ssspOp(g, 0, DefaultConfig())
	op.Sources = []uint32{0, 99}
	if _, err := op.Run(); err == nil {
		t.Fatal("expected an error for an out-of-range source")
	}
}
