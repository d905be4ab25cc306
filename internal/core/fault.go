package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"graphit/internal/parallel"
)

// FaultPolicy selects how the engine reacts to a contained fault — a panic
// recovered from a traversal phase, or a round aborted by RoundTimeout.
type FaultPolicy int

const (
	// FaultFail stops the run and returns the fault (a *PanicError or
	// *StuckError) together with the partial Stats. The default.
	FaultFail FaultPolicy = iota
	// FaultRetrySerial re-executes the faulted round serially and
	// deterministically on one worker, then rebuilds the engine's bucket
	// state from the authoritative priority vector and resumes in parallel.
	// The priority vector (plus the finalized set) is the engine's only
	// authoritative state — bins, buckets, dedup flags, and histograms are
	// all derived from it — so a rebuild restores a consistent engine after
	// any mid-round fault.
	FaultRetrySerial
)

var faultPolicyNames = [...]string{
	FaultFail:        "fail",
	FaultRetrySerial: "retry_serial",
}

func (p FaultPolicy) String() string {
	if p >= 0 && int(p) < len(faultPolicyNames) {
		return faultPolicyNames[p]
	}
	return fmt.Sprintf("FaultPolicy(%d)", int(p))
}

// ParseFaultPolicy parses "fail" or "retry_serial".
func ParseFaultPolicy(s string) (FaultPolicy, error) {
	for i, n := range faultPolicyNames {
		if n == s {
			return FaultPolicy(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown fault policy %q", s)
}

// Engine phase names, as reported by PanicError.Phase and passed to fault
// hooks. The coarse phases (next_bucket, relax, update_buckets) bracket the
// three stages of a round; the dotted names are the finer-grained points
// inside the relax phase where parallel workers check in. Phases executed
// during a serial retry carry the "retry." prefix.
const (
	PhaseNext        = "next_bucket"
	PhaseRelax       = "relax"
	PhaseRelaxChunk  = "relax.chunk"
	PhaseFusion      = "relax.fusion"
	PhaseUpdate      = "update_buckets"
	PhaseApproxBatch = "approx.batch"
	// RetryPrefix prefixes every phase executed by the serial retry of a
	// faulted round (FaultRetrySerial).
	RetryPrefix = "retry."
)

// PanicError reports a panic recovered from an engine phase. The run is
// halted (or retried, under FaultRetrySerial), the executor's workers are
// joined and returned to their reusable state, and the error propagates out
// of RunContext/RunApproxContext alongside the partial Stats.
type PanicError struct {
	// Phase is the engine phase the panic was recovered in (see the Phase*
	// constants); retried phases carry the "retry." prefix.
	Phase string
	// Round is the 1-based round being executed (0 if no round had begun).
	Round int64
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at the recovery
	// point closest to the fault.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic in %s phase (round %d): %v", e.Phase, e.Round, e.Value)
}

// Stuck reasons reported by StuckError.Reason.
const (
	// StuckRoundTimeout means one round exceeded Cfg.RoundTimeout.
	StuckRoundTimeout = "round_timeout"
	// StuckNoProgress means Cfg.StuckRounds consecutive rounds processed
	// the same bucket with zero relaxations.
	StuckNoProgress = "no_progress"
)

// StuckError reports a run aborted by the watchdog (RoundTimeout) or the
// no-progress detector (StuckRounds), with enough per-round trace context
// to diagnose the hang.
type StuckError struct {
	// Reason is StuckRoundTimeout or StuckNoProgress.
	Reason string
	// Round, Bucket, Priority, and Frontier describe the round that
	// triggered the abort.
	Round    int64
	Bucket   int64
	Priority int64
	Frontier int
	// Elapsed is how long the offending round (timeout) or the no-progress
	// streak had been running.
	Elapsed time.Duration
	// Recent holds the last few completed rounds' trace events, oldest
	// first, regardless of whether a Tracer was attached.
	Recent []RoundEvent
}

func (e *StuckError) Error() string {
	return fmt.Sprintf("core: run stuck (%s) at round %d: bucket %d (priority %d, frontier %d) after %v",
		e.Reason, e.Round, e.Bucket, e.Priority, e.Frontier, e.Elapsed)
}

// stuck reports ev's round as stuck for reason, with a copy of the
// recent-round ring for diagnosis.
func (ev RoundEvent) stuck(reason string, elapsed time.Duration, recent []RoundEvent) *StuckError {
	return &StuckError{
		Reason: reason, Round: ev.Round, Bucket: ev.Bucket, Priority: ev.Priority,
		Frontier: ev.Frontier, Elapsed: elapsed,
		Recent: append([]RoundEvent(nil), recent...),
	}
}

// FaultHook observes engine phase transitions at chunk granularity: it is
// called with the phase name, the 1-based round, and the worker id. It is
// the seam the internal/faults injection harness uses to panic, delay, or
// cancel at a deterministic point; hooks run on engine workers and must be
// safe for concurrent calls.
type FaultHook func(phase string, round int64, worker int)

// faultHookKey carries a FaultHook through a context.Context.
type faultHookKey struct{}

// WithFaultHook returns a context carrying h; runs started with that
// context invoke h at every engine phase checkpoint.
func WithFaultHook(ctx context.Context, h FaultHook) context.Context {
	return context.WithValue(ctx, faultHookKey{}, h)
}

// FaultHookFrom extracts the FaultHook installed by WithFaultHook, if any.
func FaultHookFrom(ctx context.Context) (FaultHook, bool) {
	h, ok := ctx.Value(faultHookKey{}).(FaultHook)
	return h, ok
}

// Abort reasons recorded in runCtl's flag.
const (
	abortNone int32 = iota
	abortTimeout
	abortCancel
)

// runCtl is the per-run control block shared between the round loop, the
// traversal phases, and the watchdog goroutine: the fault-injection hook,
// the cooperative abort flag, and the current round's identity and start
// time. Traversals poll it at chunk boundaries, so an abort interrupts a
// round at chunk granularity (it cannot interrupt a single blocked call
// into a user edge function — a Go limitation the watchdog documents by
// aborting as soon as the offending chunk returns).
type runCtl struct {
	hook   FaultHook
	prefix string

	reason     atomic.Int32 // abortNone/abortTimeout/abortCancel
	round      atomic.Int64 // 1-based round in flight (0 when idle)
	roundStart atomic.Int64 // UnixNano of the round's start (0 when idle)
}

func newRunCtl(ctx context.Context) *runCtl {
	c := &runCtl{}
	if h, ok := FaultHookFrom(ctx); ok {
		c.hook = h
	}
	return c
}

// abort requests a cooperative stop; the first reason wins.
func (c *runCtl) abort(reason int32) { c.reason.CompareAndSwap(abortNone, reason) }

// aborted reports the recorded abort reason (abortNone if none).
func (c *runCtl) aborted() int32 { return c.reason.Load() }

// beginRound marks a round in flight for the watchdog and hook.
func (c *runCtl) beginRound(round int64) {
	c.round.Store(round)
	c.roundStart.Store(time.Now().UnixNano())
}

// endRound marks the run idle (between rounds, or retrying serially) so the
// watchdog does not time an interval no round is consuming.
func (c *runCtl) endRound() { c.roundStart.Store(0) }

// reset clears the abort flag after a handled fault so the retried/rebuilt
// engine starts clean.
func (c *runCtl) reset() {
	c.reason.Store(abortNone)
	c.endRound()
}

// fire invokes the fault-injection hook, if any.
func (c *runCtl) fire(phase string, worker int) {
	if c.hook != nil {
		c.hook(c.prefix+phase, c.round.Load(), worker)
	}
}

// fireAt is fire with an explicit round — used by the approx engine, which
// has no global rounds and passes the worker's batch index instead.
func (c *runCtl) fireAt(phase string, round int64, worker int) {
	if c.hook != nil {
		c.hook(c.prefix+phase, round, worker)
	}
}

// phase runs one round phase with panic containment: the injection hook
// fires first (worker 0's checkpoint), then fn; a panic from either — or
// re-raised by the executor from a worker — is recovered and converted to
// a *PanicError naming the phase and round.
func (c *runCtl) phase(name string, fn func()) (pe *PanicError) {
	defer func() {
		if r := recover(); r != nil {
			pe = asPanicError(c.prefix+name, c.round.Load(), r)
		}
	}()
	c.fire(name, 0)
	fn()
	return nil
}

// checkpoint is the per-chunk check inside parallel traversal phases: it
// fires the injection hook (which may panic — contained by the executor)
// and reports whether the round has been aborted and the worker should
// stop claiming work.
func (c *runCtl) checkpoint(phase string, worker int) bool {
	c.fire(phase, worker)
	return c.reason.Load() != abortNone
}

// startWatchdog spawns the round watchdog: it aborts any round that stays
// in flight longer than timeout, and converts context cancellation into a
// mid-round abort (without it, cancellation is only seen at round
// barriers). The returned stop function joins the goroutine.
func (c *runCtl) startWatchdog(ctx context.Context, timeout time.Duration) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := timeout / 8
		if tick < time.Millisecond {
			tick = time.Millisecond
		}
		t := time.NewTicker(tick)
		defer t.Stop()
		// After a timeout abort the engine may retry and resume; only abort
		// again once a different round is in flight.
		var lastAborted int64
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				c.abort(abortCancel)
				return
			case <-t.C:
				start := c.roundStart.Load()
				if start == 0 || start == lastAborted {
					continue
				}
				if time.Since(time.Unix(0, start)) > timeout {
					c.abort(abortTimeout)
					lastAborted = start
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// asPanicError converts a recovered panic value into a *PanicError,
// unwrapping the executor's *parallel.Panic so the stack captured closest
// to the fault survives.
func asPanicError(phase string, round int64, r any) *PanicError {
	switch p := r.(type) {
	case *PanicError:
		return p
	case *parallel.Panic:
		return &PanicError{Phase: phase, Round: round, Value: p.Value, Stack: p.Stack}
	default:
		return &PanicError{Phase: phase, Round: round, Value: r, Stack: debug.Stack()}
	}
}
