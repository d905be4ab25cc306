package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Panic describes a panic recovered from a parallel loop body. Every loop
// primitive (Run, ForChunks, ForStatic, and the scan/pack helpers)
// contains panics on its workers: all workers are joined, the executor is
// returned to a reusable parked state, and the first panic is re-raised on
// the calling goroutine wrapped in a *Panic that preserves the panicking
// worker's stack. Callers that need an error instead of a panic (the
// ordered engine) recover it and unwrap Value/Stack.
type Panic struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
	// Worker is the worker id the panic occurred on.
	Worker int
}

func (p *Panic) Error() string {
	return fmt.Sprintf("parallel: panic on worker %d: %v", p.Worker, p.Value)
}

// panicCell records the first panic of an invocation so it can be re-raised
// on the calling goroutine after all workers have joined.
type panicCell struct {
	mu sync.Mutex
	p  *Panic
}

// capture stores r (first panic wins). A *Panic passes through unchanged so
// the stack captured closest to the fault survives rewrapping.
func (c *panicCell) capture(r any, worker int) {
	wp, ok := r.(*Panic)
	if !ok {
		wp = &Panic{Value: r, Stack: debug.Stack(), Worker: worker}
	}
	c.mu.Lock()
	if c.p == nil {
		c.p = wp
	}
	c.mu.Unlock()
}

// take returns the recorded panic, if any, and empties the cell for reuse.
func (c *panicCell) take() *Panic {
	c.mu.Lock()
	p := c.p
	c.p = nil
	c.mu.Unlock()
	return p
}

// rethrow re-raises the recorded panic, if any, on the caller.
func (c *panicCell) rethrow() {
	if p := c.take(); p != nil {
		panic(p)
	}
}

// protect wraps fn so a panic is recorded in cell instead of unwinding past
// the worker (which would kill the process on a pooled goroutine, or strand
// the invocation lock on the caller).
func protect(fn func(worker int), cell *panicCell) func(worker int) {
	return func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				cell.capture(r, worker)
			}
		}()
		fn(worker)
	}
}

// Executor is a persistent pool of parked worker goroutines with a fixed,
// immutable worker count. It provides the loop primitives (Run, For,
// ForChunks, ForStatic, and the scan/pack helpers) bound to its own
// workers: the count never changes after construction, so callers may size
// per-worker state from Workers(), and repeated invocations reuse the same
// parked goroutines instead of spawning a fresh set per call — the
// persistent-thread-pool execution model of the OpenMP/Cilk runtimes the
// paper's generated code runs on.
//
// One invocation (Run/ForChunks/...) executes at a time on an executor's
// pooled workers; the calling goroutine participates as worker 0 and the
// remaining w-1 workers park on their dispatch channels between calls. If
// an invocation arrives while another is in flight — concurrent callers
// sharing one executor, or a loop body re-entering its own executor — it transparently degrades to transient goroutines, which is
// exactly the old spawn-per-call behavior, so nesting and sharing remain
// safe (just not accelerated).
type Executor struct {
	w   int
	chs []chan func(worker int)
	sh  *execShared

	mu     sync.Mutex // serializes pooled invocations; guards closed
	closed bool
}

// execShared is the state shared between an executor and its workers. It is
// deliberately a separate allocation: workers hold only this and their
// channel, so an abandoned Executor can become unreachable (and its
// finalizer close the workers down) even while they are parked.
type execShared struct {
	wg sync.WaitGroup
	// fn is the body of the pooled invocation in flight and cell records
	// its first panic; run is the protected trampoline the workers are
	// handed, built once so a pooled invocation allocates nothing. All three
	// are guarded by the invocation lock (Executor.mu).
	fn   func(worker int)
	cell panicCell
	run  func(worker int)
}

// NewExecutor returns an executor with w persistent workers. w <= 0 sizes
// it from GOMAXPROCS. The workers are reclaimed by Close, or by a finalizer
// if the executor is dropped without one.
func NewExecutor(w int) *Executor {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Executor{w: w}
	if w > 1 {
		sh := &execShared{}
		sh.run = protect(func(worker int) { sh.fn(worker) }, &sh.cell)
		e.sh = sh
		e.chs = make([]chan func(worker int), w-1)
		for i := range e.chs {
			// Buffer 1 so dispatch never blocks on worker wakeup: the
			// invocation protocol guarantees the previous task was joined
			// (sh.wg) before the next send, so the slot is always free.
			ch := make(chan func(worker int), 1)
			e.chs[i] = ch
			go executorWorker(i+1, ch, e.sh)
		}
		runtime.SetFinalizer(e, (*Executor).finalize)
	}
	return e
}

// finalize is the backstop for executors dropped without Close (e.g. an
// abandoned Manual run). It must not block the finalizer goroutine, so it
// gives up if the invocation lock is held; panics in loop bodies are
// recovered on the workers themselves (see protect), so the lock can only
// be held by an invocation still legitimately in flight.
func (e *Executor) finalize() {
	if !e.mu.TryLock() {
		return
	}
	if !e.closed {
		e.closed = true
		for _, ch := range e.chs {
			close(ch)
		}
	}
	e.mu.Unlock()
}

func executorWorker(worker int, ch <-chan func(worker int), sh *execShared) {
	for fn := range ch {
		fn(worker)
		sh.wg.Done()
	}
}

// Workers returns the executor's fixed worker count.
func (e *Executor) Workers() int { return e.w }

// Close parks the executor permanently: its worker goroutines exit and
// later invocations fall back to transient goroutines. Close is idempotent
// and waits for an in-flight invocation to finish first.
func (e *Executor) Close() {
	if e.w <= 1 {
		return
	}
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		for _, ch := range e.chs {
			close(ch)
		}
	}
	e.mu.Unlock()
	runtime.SetFinalizer(e, nil)
}

// spawnRun is the transient fallback: the historical spawn-per-call
// parallel region, used when an executor is busy, closed, or absent. Like
// the pooled path, a panicking body is joined and re-raised on the caller
// as a *Panic instead of killing the process from a bare goroutine.
func spawnRun(w int, fn func(worker int)) {
	if w <= 1 {
		fn(0)
		return
	}
	var cell panicCell
	wrapped := protect(fn, &cell)
	var wg sync.WaitGroup
	wg.Add(w)
	for wk := 0; wk < w; wk++ {
		go func(worker int) {
			defer wg.Done()
			wrapped(worker)
		}(wk)
	}
	wg.Wait()
	cell.rethrow()
}

// Run executes fn(worker) once on each of the executor's workers and waits
// for all of them — an OpenMP parallel region on persistent threads. The
// caller's goroutine runs worker 0.
//
// A panic in fn is contained: every worker still joins, the executor's
// workers return to their parked (reusable) state, and the first panic is
// re-raised on the caller wrapped in a *Panic carrying the original value
// and stack. The pool entry is never stranded by a panicked invocation.
func (e *Executor) Run(fn func(worker int)) {
	if e.w <= 1 {
		fn(0)
		return
	}
	if !e.mu.TryLock() {
		spawnRun(e.w, fn)
		return
	}
	if e.closed {
		e.mu.Unlock()
		spawnRun(e.w, fn)
		return
	}
	sh := e.sh
	sh.fn = fn
	sh.wg.Add(e.w - 1)
	for _, ch := range e.chs {
		ch <- sh.run
	}
	sh.run(0)
	sh.wg.Wait()
	sh.fn = nil
	p := sh.cell.take()
	e.mu.Unlock()
	if p != nil {
		panic(p)
	}
}

// ForChunks divides [0, n) into chunks of at most grain iterations and
// hands each chunk to body(lo, hi, worker) using dynamic (atomic-counter)
// scheduling, on the executor's workers.
func (e *Executor) ForChunks(n, grain int, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	if e.w <= 1 || n <= grain {
		body(0, n, 0)
		return
	}
	var next atomic.Int64
	// A panicked chunk marks the loop aborted so sibling workers stop
	// claiming chunks at their next boundary; the panic is wrapped here (the
	// closest frame to the fault) so the original stack reaches the caller.
	var aborted atomic.Bool
	e.Run(func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				aborted.Store(true)
				if _, ok := r.(*Panic); !ok {
					r = &Panic{Value: r, Stack: debug.Stack(), Worker: worker}
				}
				panic(r)
			}
		}()
		for !aborted.Load() {
			lo := int(next.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi, worker)
		}
	})
}

// ForStatic divides [0, n) into Workers() contiguous slabs, one per worker.
func (e *Executor) ForStatic(n int, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	w := e.w
	if w <= 1 {
		body(0, n, 0)
		return
	}
	per := (n + w - 1) / w
	e.Run(func(worker int) {
		lo := worker * per
		hi := lo + per
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		if lo < hi {
			body(lo, hi, worker)
		}
	})
}

// For runs body(i) for every i in [0, n) with dynamic scheduling and
// DefaultGrain.
func (e *Executor) For(n int, body func(i int)) {
	e.ForGrain(n, DefaultGrain, body)
}

// ForGrain is For with an explicit grain size.
func (e *Executor) ForGrain(n, grain int, body func(i int)) {
	e.ForChunks(n, grain, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// executorPool recycles executors between engine runs, keyed by worker
// count, so back-to-back runs (autotune trials, PPSP query batches) reuse
// parked workers instead of spawning a pool per run. Executors evicted at
// the cap are closed; abandoned ones are reclaimed by their finalizer.
var executorPool = struct {
	mu   sync.Mutex
	free map[int][]*Executor
}{free: make(map[int][]*Executor)}

// maxPooledExecutors bounds the free list per worker count; it caps parked
// goroutines at maxPooledExecutors*(w-1) per distinct count while letting
// that many runs proceed concurrently without construction cost.
const maxPooledExecutors = 8

// ExecutorPoolCap returns the number of executors the Acquire/Release pool
// retains per distinct worker count. Long-running callers that admit
// concurrent engine runs (the graphd server) size their concurrency limit
// from it: up to this many runs reuse parked worker pools, while any run
// beyond it constructs and tears down a fresh executor — admission past the
// cap is allowed but no longer amortized.
func ExecutorPoolCap() int { return maxPooledExecutors }

// Acquire checks an executor with w workers out of the pool (w <= 0 =
// GOMAXPROCS), constructing one if none is free. Pair with Release.
func Acquire(w int) *Executor {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	executorPool.mu.Lock()
	if list := executorPool.free[w]; len(list) > 0 {
		e := list[len(list)-1]
		list[len(list)-1] = nil
		executorPool.free[w] = list[:len(list)-1]
		executorPool.mu.Unlock()
		return e
	}
	executorPool.mu.Unlock()
	return NewExecutor(w)
}

// Release returns an executor obtained from Acquire to the pool. Closed
// executors and executors still mid-invocation (possible only if a loop
// body panicked past its join) are dropped instead of pooled.
func Release(e *Executor) {
	if e == nil {
		return
	}
	if e.w <= 1 {
		return
	}
	if !e.mu.TryLock() {
		return
	}
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return
	}
	executorPool.mu.Lock()
	if len(executorPool.free[e.w]) < maxPooledExecutors {
		executorPool.free[e.w] = append(executorPool.free[e.w], e)
		e = nil
	}
	executorPool.mu.Unlock()
	if e != nil {
		e.Close()
	}
}

// CloseIdle closes every idle pooled executor, parking its worker
// goroutines permanently. It exists for goroutine-leak assertions in tests:
// pooled workers are intentionally long-lived, so a leak check must first
// drain them to distinguish "parked by design" from "stranded by a bug".
// Executors currently checked out via Acquire are unaffected.
func CloseIdle() {
	executorPool.mu.Lock()
	lists := executorPool.free
	executorPool.free = make(map[int][]*Executor)
	executorPool.mu.Unlock()
	for _, list := range lists {
		for _, e := range list {
			e.Close()
		}
	}
}
