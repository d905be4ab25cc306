// Package parallel provides the shared-memory parallel substrate used by the
// ordered-graph engines: chunked parallel-for loops (static and dynamic),
// parallel prefix sums, and packing/filtering primitives.
//
// The design mirrors the execution model of the Cilk/OpenMP runtimes used by
// the paper's C++ frameworks: a fixed pool of workers, each of which may keep
// worker-local state (e.g. the thread-local bucket bins of the eager engine),
// with explicit barriers between phases.
//
// The Executor type is a persistent worker pool with a fixed, immutable
// count: every run acquires its own (Acquire / Release), so concurrent runs
// with different worker counts are isolated and rounds reuse parked
// goroutines instead of spawning. There is no process-wide worker count.
package parallel

// DefaultGrain is the default number of iterations handed to a worker at a
// time by dynamic scheduling. It matches the "dynamic, 64" OpenMP schedule
// used by the generated code in the paper (Figure 9(c), line 15).
const DefaultGrain = 64
