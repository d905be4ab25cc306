package core

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"graphit/internal/parallel"
)

// Loop is the round functions of a bulk-synchronous loop: one attempt of a
// RunLoop run, or one ordered engine.
type Loop struct {
	// Next prepares the next round and reports whether there is one.
	Next func() bool
	// Round executes the prepared round, running its parallel work through
	// r.
	Round func(r *Round)

	// stalled, when set, replaces the no-progress test of a round against
	// its predecessor (the ordered engine's is looser than a loop's).
	stalled func(prev, ev RoundEvent) bool
}

// Round is a Loop round's handle on its run: the run's executor, the
// round's fault checkpoints, and the run's counters.
type Round struct {
	// Bucket and Frontier describe the round for its trace event and the
	// no-progress detector; the round sets them.
	Bucket   int64
	Frontier int
	// Stats accumulates the run's counters; RunLoop counts Rounds.
	Stats *Stats

	// updated and pull complete an ordered engine round's trace event.
	updated int
	pull    bool

	ex          *parallel.Executor
	ctl         *runCtl
	grain       int
	interrupted atomic.Bool
}

// ForChunks runs body over [0, n) in chunks of the schedule's grain on the
// run's executor, with worker in [0, workers) for the count start was
// given. Every chunk is a fault checkpoint (PhaseRelaxChunk); once the run
// is aborted by the watchdog or cancellation, workers stop claiming chunks
// and the round's effects are partial.
func (r *Round) ForChunks(n int, body func(lo, hi, worker int)) {
	r.ex.ForChunks(n, r.grain, func(lo, hi, worker int) {
		if r.ctl.checkpoint(PhaseRelaxChunk, worker) {
			r.interrupted.Store(true)
			return
		}
		body(lo, hi, worker)
	})
}

// Filter returns the indices in [0, n) that pass keep, in ascending order.
// keep is evaluated in checkpointed chunks like ForChunks; the result is
// then built the way the unordered frameworks' vertex filter builds a
// frontier — materializing [0, n) and packing it through a flag array and
// a prefix sum — so a full-scan baseline pays that per-round cost.
func (r *Round) Filter(n int, keep func(i int) bool) []uint32 {
	kept := make([]bool, n)
	r.ForChunks(n, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			kept[i] = keep(i)
		}
	})
	return r.ex.PackU32(r.ex.IotaU32(n), func(i int) bool { return kept[i] })
}

// RunLoop runs a round loop that is not an ordered edge sweep — set
// cover, the unordered baselines of paper Figure 1, the DSL's extern-driven
// loop — on the round loop and envelope of the ordered engine: an
// executor sized from cfg.Workers, the RoundTimeout watchdog, the
// StuckRounds detector, fault hooks (PhaseNext before Next, PhaseRelax
// before Round, PhaseRelaxChunk per chunk), *PanicError capture, tracer
// events, and a cancellation check at every round barrier that returns the
// partial Stats with ctx.Err(). Loops do not coarsen priorities: a
// round's priority is its bucket.
//
// start initialises the loop's state for an attempt on workers workers.
// Such loops keep no authoritative vector to rebuild from, so under
// FaultRetrySerial a fault restarts the loop from its initial state: start
// is called again and the new attempt runs on one worker with the "retry."
// phase prefix. A fault in that attempt is terminal. The Stats returned
// are those of the attempt that produced the result, plus Retries.
func RunLoop(ctx context.Context, cfg Config, info RunInfo, start func(workers int) Loop) (Stats, error) {
	cfg.Delta = 1
	tr := tracerOf(ctx)
	ex := parallel.Acquire(cfg.Workers)
	ctl := newRunCtl(ctx)
	if cfg.RoundTimeout > 0 {
		defer ctl.startWatchdog(ctx, cfg.RoundTimeout)()
	}
	tr.RunStart(info)
	var st Stats
	fault, err := runLoop(ctx, cfg, ex, ctl, tr, &st, start(ex.Workers()))
	parallel.Release(ex)
	if fault != nil && cfg.OnFault == FaultRetrySerial && ctx.Err() == nil {
		ctl.reset()
		ctl.prefix = RetryPrefix
		st = Stats{Retries: 1}
		fault, err = runLoop(ctx, cfg, parallel.NewExecutor(1), ctl, tr, &st, start(1))
	}
	if fault != nil {
		err = fault
	}
	tr.RunEnd(st, err)
	return st, err
}

// runLoop is the round loop shared by RunLoop and the ordered engine. It
// runs l to its fixpoint, counting into st, and returns a retryable fault
// (a *PanicError, or a *StuckError for a round the watchdog interrupted)
// apart from a terminal error (cancellation, no progress).
func runLoop(ctx context.Context, cfg Config, ex *parallel.Executor, ctl *runCtl, tr Tracer, st *Stats, l Loop) (fault, err error) {
	r := &Round{Stats: st, ex: ex, ctl: ctl, grain: cfg.Grain}
	stalled := l.stalled
	if stalled == nil {
		// A correct loop does work or changes its bucket or frontier every
		// round.
		stalled = func(prev, ev RoundEvent) bool {
			return ev.Bucket == prev.Bucket && ev.Frontier == prev.Frontier && ev.Relaxations == 0 && ev.Processed == 0
		}
	}
	keepRecent := cfg.RoundTimeout > 0 || cfg.StuckRounds > 0
	var recent []RoundEvent
	prev := RoundEvent{Bucket: math.MinInt64}
	stuckRun := 0
	var stuckSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ctl.beginRound(st.Rounds + 1)
		var more bool
		if pe := ctl.phase(PhaseNext, func() { more = l.Next() }); pe != nil {
			return pe, nil
		}
		if !more {
			ctl.endRound()
			return nil, nil
		}
		st.Rounds++
		r.Bucket, r.Frontier, r.updated, r.pull = 0, 0, 0, false
		r.interrupted.Store(false)
		relax, proc, fused := st.Relaxations, st.Processed, st.FusedRounds
		begin := time.Now()
		if pe := ctl.phase(PhaseRelax, func() { l.Round(r) }); pe != nil {
			return pe, nil
		}
		ev := RoundEvent{
			Round:       st.Rounds,
			Bucket:      r.Bucket,
			Priority:    r.Bucket * cfg.Delta,
			Frontier:    r.Frontier,
			Updated:     r.updated,
			Relaxations: st.Relaxations - relax,
			Processed:   st.Processed - proc,
			FusedIters:  st.FusedRounds - fused,
			Pull:        r.pull,
			Wall:        time.Since(begin),
		}
		switch ctl.aborted() {
		case abortCancel:
			return nil, ctx.Err()
		case abortTimeout:
			if r.interrupted.Load() {
				return ev.stuck(StuckRoundTimeout, ev.Wall, recent), nil
			}
			// The timeout raced with the round's completion: the round is
			// whole, so the abort is moot.
			ctl.reset()
		}
		ctl.endRound()
		tr.Round(ev)
		if keepRecent {
			recent = pushRecent(recent, ev)
		}
		if cfg.StuckRounds <= 0 {
			continue
		}
		// K consecutive stalled rounds cannot converge: the detector only
		// fires on a defective loop (or an injected stall) and is terminal.
		if stalled(prev, ev) {
			if stuckRun == 0 {
				stuckSince = begin
			}
			stuckRun++
		} else {
			stuckRun = 0
		}
		if stuckRun >= cfg.StuckRounds {
			return nil, ev.stuck(StuckNoProgress, time.Since(stuckSince), recent)
		}
		prev = ev
	}
}

// recentRounds bounds the ring of completed-round events attached to a
// StuckError for diagnosis.
const recentRounds = 8

// pushRecent appends ev to the ring of recent round events, dropping the
// oldest once it holds recentRounds.
func pushRecent(recent []RoundEvent, ev RoundEvent) []RoundEvent {
	if len(recent) == recentRounds {
		copy(recent, recent[1:])
		recent = recent[:recentRounds-1]
	}
	return append(recent, ev)
}
