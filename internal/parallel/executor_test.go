package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"graphit/internal/testutil"
)

// TestExecutorWorkerIDStability: every invocation hands out each worker id
// in [0, w) exactly once, invocation after invocation — the property the
// engine's ups[worker] indexing depends on.
func TestExecutorWorkerIDStability(t *testing.T) {
	const w = 4
	e := NewExecutor(w)
	defer e.Close()
	if e.Workers() != w {
		t.Fatalf("Workers() = %d, want %d", e.Workers(), w)
	}
	for round := 0; round < 50; round++ {
		var hits [w]atomic.Int64
		e.Run(func(worker int) {
			if worker < 0 || worker >= w {
				t.Errorf("round %d: worker id %d out of [0,%d)", round, worker, w)
				return
			}
			hits[worker].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("round %d: worker %d ran %d times, want 1", round, i, got)
			}
		}
	}
}

// TestExecutorReuseAcrossRounds: repeated invocations reuse the parked
// workers — the goroutine count does not grow with invocations.
func TestExecutorReuseAcrossRounds(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	e.Run(func(int) {}) // warm up
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		e.ForChunks(10_000, 64, func(lo, hi, worker int) {})
	}
	// A tolerance of a few absorbs unrelated runtime goroutines; per-round
	// spawning would add hundreds.
	if after := runtime.NumGoroutine(); after > before+3 {
		t.Errorf("goroutines grew from %d to %d across 200 rounds", before, after)
	}
}

// TestExecutorForChunksCoverage: dynamic chunking visits every index exactly
// once with in-range worker ids.
func TestExecutorForChunksCoverage(t *testing.T) {
	const n = 10_000
	e := NewExecutor(5)
	defer e.Close()
	visits := make([]atomic.Int32, n)
	e.ForChunks(n, 7, func(lo, hi, worker int) {
		if worker < 0 || worker >= 5 {
			t.Errorf("worker id %d out of range", worker)
		}
		for i := lo; i < hi; i++ {
			visits[i].Add(1)
		}
	})
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestExecutorForStaticSlabs: static scheduling covers [0, n) in disjoint
// per-worker slabs.
func TestExecutorForStaticSlabs(t *testing.T) {
	const n = 1001
	e := NewExecutor(4)
	defer e.Close()
	owner := make([]atomic.Int32, n)
	e.ForStatic(n, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			owner[i].Add(int32(worker) + 1)
		}
	})
	seen := map[int32]bool{}
	for i := range owner {
		v := owner[i].Load()
		if v < 1 || v > 4 {
			t.Fatalf("index %d claimed by %d (want exactly one worker)", i, v-1)
		}
		seen[v-1] = true
	}
	if len(seen) != 4 {
		t.Errorf("%d workers received slabs, want 4", len(seen))
	}
}

// TestExecutorCloseSemantics: Close is idempotent, and invocations after
// Close still complete correctly by falling back to transient goroutines.
func TestExecutorCloseSemantics(t *testing.T) {
	e := NewExecutor(4)
	e.Close()
	e.Close() // idempotent
	var hits [4]atomic.Int64
	e.Run(func(worker int) { hits[worker].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("after Close: worker %d ran %d times, want 1", i, got)
		}
	}
	if e.Workers() != 4 {
		t.Errorf("Workers() changed after Close: %d", e.Workers())
	}
}

// TestExecutorConcurrentInvocations: callers racing for the same executor
// all complete with full worker coverage (the loser degrades to transient
// goroutines rather than deadlocking or corrupting the pooled dispatch).
func TestExecutorConcurrentInvocations(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	e := NewExecutor(4)
	defer e.Close()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				var count atomic.Int64
				e.Run(func(worker int) { count.Add(1) })
				if count.Load() != 4 {
					t.Errorf("concurrent Run saw %d workers, want 4", count.Load())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExecutorNestedInvocation: a loop body that re-enters its own executor
// must not deadlock; the nested call runs on transient goroutines.
func TestExecutorNestedInvocation(t *testing.T) {
	e := NewExecutor(3)
	defer e.Close()
	var inner atomic.Int64
	e.Run(func(worker int) {
		e.Run(func(int) { inner.Add(1) })
	})
	if inner.Load() != 9 {
		t.Errorf("nested Run bodies ran %d times, want 9", inner.Load())
	}
}

// TestExecutorScanPack: the scan/pack methods agree with their serial
// definitions on sizes that exercise the parallel paths.
func TestExecutorScanPack(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	n := 1 << 15 // above PrefixSum's serial cutoff
	xs := make([]int64, n)
	var total int64
	for i := range xs {
		xs[i] = int64(i%5) - 1
	}
	want := make([]int64, n)
	for i := range xs {
		want[i] = total
		total += xs[i]
	}
	if got := e.PrefixSum(xs); got != total {
		t.Fatalf("PrefixSum total = %d, want %d", got, total)
	}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("PrefixSum[%d] = %d, want %d", i, xs[i], want[i])
		}
	}

	ids := e.IotaU32(n)
	for i, v := range ids {
		if v != uint32(i) {
			t.Fatalf("IotaU32[%d] = %d", i, v)
		}
	}
	kept := e.PackU32(ids, func(i int) bool { return i%3 == 0 })
	if len(kept) != (n+2)/3 {
		t.Fatalf("PackU32 kept %d, want %d", len(kept), (n+2)/3)
	}
	for i, v := range kept {
		if v != uint32(i*3) {
			t.Fatalf("PackU32[%d] = %d, want %d", i, v, i*3)
		}
	}
}

// mustPanic runs fn, requires it to panic with a *Panic, and returns it.
func mustPanic(t *testing.T, fn func()) *Panic {
	t.Helper()
	var got *Panic
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("no panic propagated to the caller")
			}
			p, ok := r.(*Panic)
			if !ok {
				t.Fatalf("panic value is %T, want *Panic", r)
			}
			got = p
		}()
		fn()
	}()
	return got
}

// TestExecutorRunPanicContained: a panic in a Run body is re-raised on the
// caller as a *Panic with the original value and a non-empty stack, and the
// executor remains fully usable afterwards (the pre-fix behavior stranded
// the invocation lock, degrading every later call to transient goroutines).
func TestExecutorRunPanicContained(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	e := NewExecutor(4)
	defer e.Close()
	p := mustPanic(t, func() {
		e.Run(func(worker int) {
			if worker == 2 {
				panic("boom")
			}
		})
	})
	if p.Value != "boom" {
		t.Errorf("Panic.Value = %v, want boom", p.Value)
	}
	if p.Worker != 2 {
		t.Errorf("Panic.Worker = %d, want 2", p.Worker)
	}
	if len(p.Stack) == 0 {
		t.Error("Panic.Stack is empty")
	}
	// The executor must still run pooled invocations correctly.
	for round := 0; round < 10; round++ {
		var hits [4]atomic.Int64
		e.Run(func(worker int) { hits[worker].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("post-panic round %d: worker %d ran %d times", round, i, got)
			}
		}
	}
}

// TestExecutorRunSteadyStateAllocs: a pooled Run with a pre-built body
// allocates nothing, also after a contained panic — the per-round
// dispatch and join the eager engine pays must not feed the GC.
func TestExecutorRunSteadyStateAllocs(t *testing.T) {
	e := NewExecutor(2)
	defer e.Close()
	var hits [2]atomic.Int64
	body := func(worker int) { hits[worker].Add(1) }
	mustPanic(t, func() { e.Run(func(int) { panic("boom") }) })
	allocs := testing.AllocsPerRun(100, func() { e.Run(body) })
	if allocs != 0 {
		t.Errorf("pooled Run allocates %.0f times, want 0", allocs)
	}
	if hits[0].Load() != hits[1].Load() || hits[0].Load() == 0 {
		t.Fatalf("workers ran %d and %d times", hits[0].Load(), hits[1].Load())
	}
}

// TestExecutorPanicAllWorkers: every worker panicking at once still joins
// cleanly and surfaces exactly one panic.
func TestExecutorPanicAllWorkers(t *testing.T) {
	e := NewExecutor(4)
	defer e.Close()
	for round := 0; round < 20; round++ {
		p := mustPanic(t, func() {
			e.Run(func(worker int) { panic(worker) })
		})
		if _, ok := p.Value.(int); !ok {
			t.Fatalf("Panic.Value = %v (%T), want a worker id", p.Value, p.Value)
		}
	}
}

// TestExecutorForChunksPanicAborts: a panicking chunk stops sibling workers
// from claiming further chunks, and the loop's panic preserves the faulting
// worker's stack (not the rethrow site's).
func TestExecutorForChunksPanicAborts(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	e := NewExecutor(4)
	defer e.Close()
	const n = 1 << 20
	var processed atomic.Int64
	p := mustPanic(t, func() {
		e.ForChunks(n, 16, func(lo, hi, worker int) {
			if lo == 0 {
				panic("chunk fault")
			}
			processed.Add(int64(hi - lo))
		})
	})
	if p.Value != "chunk fault" {
		t.Errorf("Panic.Value = %v", p.Value)
	}
	if got := processed.Load(); got >= n-16 {
		t.Errorf("siblings processed %d of %d iterations after the fault; abort did not propagate", got, n)
	}
	// The dynamic loop still covers everything on the next invocation.
	var count atomic.Int64
	e.ForChunks(1000, 7, func(lo, hi, _ int) { count.Add(int64(hi - lo)) })
	if count.Load() != 1000 {
		t.Errorf("post-panic ForChunks covered %d of 1000", count.Load())
	}
}

// TestExecutorPanicTransientFallback: panics are contained on the transient
// (spawnRun) path too — both via a closed executor and via nesting.
func TestExecutorPanicTransientFallback(t *testing.T) {
	e := NewExecutor(3)
	e.Close()
	p := mustPanic(t, func() {
		e.Run(func(worker int) { panic("transient") })
	})
	if p.Value != "transient" {
		t.Errorf("Panic.Value = %v", p.Value)
	}

	nested := NewExecutor(3)
	defer nested.Close()
	p = mustPanic(t, func() {
		nested.Run(func(worker int) {
			if worker == 0 {
				nested.Run(func(int) { panic("inner") })
			}
		})
	})
	if p.Value != "inner" {
		t.Errorf("nested Panic.Value = %v", p.Value)
	}
}

// TestReleaseAfterPanic: an executor whose invocation panicked is still
// pool-safe — Release pools it and the next Acquire reuses it.
func TestReleaseAfterPanic(t *testing.T) {
	CloseIdle() // isolate from executors pooled by other tests
	e := Acquire(3)
	mustPanic(t, func() {
		e.Run(func(int) { panic("pooled fault") })
	})
	Release(e)
	got := Acquire(3)
	if got != e {
		t.Error("executor was not pooled after a contained panic")
	}
	var count atomic.Int64
	got.Run(func(int) { count.Add(1) })
	if count.Load() != 3 {
		t.Errorf("reacquired executor ran %d workers, want 3", count.Load())
	}
	Release(got)
}

// TestCloseIdle: draining the pool leaves later acquisitions working (built
// on demand) and does not touch checked-out executors.
func TestCloseIdle(t *testing.T) {
	defer testutil.LeakCheck(t, CloseIdle)()
	busy := Acquire(4)
	idle := Acquire(4)
	Release(idle)
	CloseIdle()
	if got := Acquire(4); got == idle {
		t.Error("CloseIdle left an idle executor in the pool")
	}
	var count atomic.Int64
	busy.Run(func(int) { count.Add(1) })
	if count.Load() != 4 {
		t.Errorf("checked-out executor ran %d workers after CloseIdle, want 4", count.Load())
	}
	Release(busy)
}

// TestAcquireReleaseReuse: the executor pool hands a released executor back
// to the next acquirer of the same count, and sizes from GOMAXPROCS when the
// requested count is non-positive.
func TestAcquireReleaseReuse(t *testing.T) {
	a := Acquire(3)
	if a.Workers() != 3 {
		t.Fatalf("Acquire(3).Workers() = %d", a.Workers())
	}
	Release(a)
	b := Acquire(3)
	if a != b {
		t.Error("Acquire after Release did not reuse the pooled executor")
	}
	Release(b)

	c := Acquire(0)
	if c.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("Acquire(0) sized %d workers, want GOMAXPROCS=%d", c.Workers(), runtime.GOMAXPROCS(0))
	}
	Release(c)

	// A closed executor must not be pooled.
	d := NewExecutor(3)
	d.Close()
	Release(d)
	if got := Acquire(3); got == d {
		t.Error("Release pooled a closed executor")
	}
}
