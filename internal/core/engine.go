package core

import (
	"context"
	"errors"
	"fmt"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// bucketSource abstracts next-bucket extraction and bulk re-bucketing: the
// eager thread-local bins, the lazy Julienne buckets, and (paired with the
// histogram traversal) the constant-sum path all implement it. Together
// with traversal it is the engine's pluggable axis pair — every strategy in
// the scheduling space is one (bucketSource, traversal) composition run by
// the same round loop.
type bucketSource interface {
	// next extracts the next non-empty bucket and its frontier, or
	// (bucket.NullBkt, nil) when the queue is exhausted.
	next() (int64, []uint32)
	// update bulk-moves the round's changed vertices to their new buckets
	// (no-op for eager, whose traversal re-buckets inline).
	update(ids []uint32)
	// finish folds the source's internal counters into st.
	finish(st *Stats)
}

// traversal abstracts one round's edge sweep — SparsePush, DensePull, the
// per-round Hybrid choice, or the constant-sum histogram reduction. It
// returns the vertices whose priorities changed (for bucketSource.update),
// whether the round pulled, and whether the sweep observed a cooperative
// abort (watchdog timeout or mid-round cancellation) and stopped early —
// in which case its effects may be partial and updated must be discarded.
type traversal interface {
	relax(bid, curPrio int64, frontier []uint32) (updated []uint32, pull, aborted bool)
}

// engine is one composed (bucketSource, traversal) pair plus the per-worker
// updaters whose counters the round loop folds. All parallel phases run on
// ex, the run's private executor, whose fixed worker count sized ups; ctl
// is the run's shared fault-control block (abort flag, injection hook).
type engine struct {
	o    *Ordered
	src  bucketSource
	trav traversal
	ups  []*Updater
	ex   *parallel.Executor
	ctl  *runCtl

	// bid and frontier are the round in flight; after a fault they name
	// the round FaultRetrySerial re-executes.
	bid      int64
	frontier []uint32
}

// Run executes the ordered operator to completion and returns its counters.
func (o *Ordered) Run() (Stats, error) {
	return o.RunContext(context.Background())
}

// RunContext executes the ordered operator under ctx. Cancellation is
// cooperative: the engine checks ctx at every round barrier (and, when a
// RoundTimeout watchdog is active, at chunk boundaries mid-round), so a
// cancelled or expired context halts the run promptly and returns the
// partial Stats accumulated so far together with ctx.Err().
//
// Faults are contained: a panic in a traversal phase (typically a user
// edge function) is recovered and returned as a *PanicError, and a round
// exceeding Cfg.RoundTimeout or stalling for Cfg.StuckRounds rounds is
// aborted with a *StuckError — in both cases with partial Stats and the
// process, executor, and pools intact. Under Cfg.OnFault=FaultRetrySerial
// the engine instead re-executes the faulted round serially, rebuilds its
// bucket state from the priority vector, and resumes.
func (o *Ordered) RunContext(ctx context.Context) (Stats, error) {
	o.Cfg.normalize()
	if err := o.validate(); err != nil {
		return Stats{}, err
	}
	switch o.Cfg.Strategy {
	case EagerWithFusion, EagerNoFusion, Lazy, LazyConstantSum:
	default:
		return Stats{}, fmt.Errorf("core: unknown strategy %d", int(o.Cfg.Strategy))
	}
	if o.FinalizeOnPop {
		o.fin = atomicutil.NewFlags(o.G.NumVertices())
	}
	active, err := o.initialActive()
	if err != nil {
		return Stats{}, err
	}
	tr := o.tracer(ctx)
	_, isNop := tr.(NopTracer)
	trace := !isNop
	if len(active) == 0 {
		if trace {
			tr.RunStart(o.runInfo(0))
			tr.RunEnd(Stats{}, nil)
		}
		return Stats{}, nil
	}

	// The run's private executor: a persistent worker pool with a count
	// fixed at Cfg.Workers (default GOMAXPROCS) for the whole run, so
	// concurrent runs with different counts are isolated and per-round
	// parallel phases reuse parked workers instead of spawning goroutines.
	ex := parallel.Acquire(o.Cfg.Workers)
	ctl := newRunCtl(ctx)
	var stopWatch func()
	if o.Cfg.RoundTimeout > 0 {
		stopWatch = ctl.startWatchdog(ctx, o.Cfg.RoundTimeout)
	}
	sc := getScratch()
	e := o.buildEngine(sc, ex, active, ctl)
	if trace {
		tr.RunStart(o.runInfo(len(active)))
	}
	var st Stats
	var runErr error
	clean := true
	lastProgress := int64(-1)
	for {
		fault, err := e.run(ctx, tr, &st)
		// The engine (or its replacement below) is done with its source
		// either way; fold the source's counters before moving on.
		e.src.finish(&st)
		if fault == nil {
			runErr = err
			break
		}
		// A fault leaves derived state (bins, dedup flags, histograms,
		// updater buffers) partial: the scratch must not be pooled.
		clean = false
		if o.Cfg.OnFault != FaultRetrySerial || st.Relaxations <= lastProgress {
			// No retry policy — or the previous retry cycle made no
			// progress, so retrying again would loop forever on the same
			// deterministic fault.
			runErr = fault
			break
		}
		lastProgress = st.Relaxations
		st.Retries++
		ctl.reset()
		// A fault in the relax phase (a panic, or a round the watchdog
		// interrupted) may have applied part of the round: re-execute it.
		// Faults in next_bucket or update_buckets leave the priority vector
		// consistent, so the rebuild alone suffices.
		var pe *PanicError
		if !errors.As(fault, &pe) || pe.Phase == PhaseRelax {
			if rerr := o.retryRelax(e, st.Rounds, &st); rerr != nil {
				runErr = rerr
				break
			}
		}
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		act := o.reactivate()
		if len(act) == 0 {
			break // the retried round reached the fixpoint
		}
		// Rebuild the engine from the authoritative priority vector on
		// fresh scratch; the dirty scratch is abandoned to the GC.
		sc = new(scratch)
		e = o.buildEngine(sc, ex, act, ctl)
	}
	if stopWatch != nil {
		stopWatch()
	}
	if trace {
		tr.RunEnd(st, runErr)
	}
	// Not deferred on purpose: scratch that went through a fault — or a
	// watchdog-driven mid-round cancellation — is dirty (partial dedup
	// flags, undrained histogram) and must not be pooled, and pooling must
	// happen only after every parallel phase has joined.
	if ctl.aborted() != abortNone {
		clean = false
	}
	if clean {
		putScratch(sc)
	}
	parallel.Release(ex)
	return st, runErr
}

// reactivate returns every vertex that must re-enter a rebuilt engine
// after a fault: non-null priority and not finalized. Together with the
// finalized flags, the priority vector is the engine's only authoritative
// state, so this set (re-bucketed by current priority) restores a
// consistent engine regardless of where the previous one faulted.
// Already-settled vertices are re-processed — their relaxations win no
// updates, so the rebuilt run still terminates with identical results.
func (o *Ordered) reactivate() []uint32 {
	null := o.nullPrio()
	var act []uint32
	for v, p := range o.Prio {
		if p == null {
			continue
		}
		if o.fin != nil && o.fin.IsSet(uint32(v)) {
			continue
		}
		act = append(act, uint32(v))
	}
	return act
}

// retryRelax re-executes one faulted round's relax phase serially and
// deterministically: a single worker sweeps the saved frontier with fresh
// scratch state (clean dedup flags, empty histogram), so the round's
// effects land exactly once even though the parallel attempt applied an
// unknown prefix of them. Min/max updates are idempotent, and constant-sum
// skips its serial Drain when aborted mid-count, so re-running the whole
// frontier is safe for every strategy (validate rejects the one unsafe
// combination, eager finalize-on-pop). Phase names seen by fault hooks
// carry the "retry." prefix; a fault during the retry itself is terminal.
func (o *Ordered) retryRelax(faulted *engine, round int64, st *Stats) (err error) {
	rctl := &runCtl{hook: faulted.ctl.hook, prefix: RetryPrefix}
	rctl.round.Store(round)
	re := o.buildRetrySweep(rctl)
	re.bid, re.frontier = faulted.bid, faulted.frontier
	defer func() {
		if r := recover(); r != nil {
			err = asPanicError(RetryPrefix+PhaseRelax, round, r)
		}
	}()
	re.relax(st)
	return nil
}

// buildRetrySweep builds the single-worker engine used by retryRelax: the
// same traversal type the faulted engine ran, minus the bucket source (the
// retry's bucket insertions are discarded — the rebuild re-derives them
// from the priority vector).
func (o *Ordered) buildRetrySweep(ctl *runCtl) *engine {
	n := o.G.NumVertices()
	grain := o.Cfg.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}
	sc := new(scratch)
	ex := parallel.NewExecutor(1) // w=1: runs on the caller, no goroutines
	ups := sc.getUpdaters(o, 1)
	switch o.Cfg.Strategy {
	case EagerWithFusion, EagerNoFusion:
		if o.Cfg.Direction == DensePull {
			inFron, _ := sc.getDense(n)
			return &engine{o: o, trav: &eagerPull{o: o, ex: ex, ups: ups, inFron: inFron, grain: grain, ctl: ctl}, ups: ups}
		}
		bins := sc.getBins(1)
		ups[0].bins = bins[0]
		ups[0].atomics = true
		// Fusion is disabled: the retry must re-execute exactly the faulted
		// round, not chase newly generated same-bucket work (the rebuilt
		// parallel engine picks that up).
		return &engine{o: o, trav: &eagerPush{o: o, ex: ex, ups: ups, bins: bins, fusion: false, grain: grain, ctl: ctl}, ups: ups}
	case LazyConstantSum:
		ups[0].atomics = true
		return &engine{o: o, trav: &constSumTrav{o: o, ex: ex, sc: sc, ups: ups, hist: sc.getHist(n), grain: grain, ctl: ctl}, ups: ups}
	default: // Lazy
		t := &lazyTrav{
			o: o, ex: ex, sc: sc, ups: ups, grain: grain,
			pullThreshold: int64(o.G.NumEdges()) / 20,
			ctl:           ctl,
		}
		if !o.Cfg.NoDedup {
			t.dedup = sc.getDedup(n)
		}
		if o.Cfg.Direction != SparsePush {
			t.inFron, t.nextMap = sc.getDense(n)
		}
		return &engine{o: o, trav: t, ups: ups}
	}
}

// tracer resolves the run's Tracer: the operator's explicit Trace field,
// else tracerOf(ctx).
func (o *Ordered) tracer(ctx context.Context) Tracer {
	if o.Trace != nil {
		return o.Trace
	}
	return tracerOf(ctx)
}

// tracerOf returns the Tracer carried by ctx (WithTracer), else the no-op
// tracer.
func tracerOf(ctx context.Context) Tracer {
	if t, ok := TracerFrom(ctx); ok && t != nil {
		return t
	}
	return NopTracer{}
}

func (o *Ordered) runInfo(frontier int) RunInfo {
	return RunInfo{
		Strategy:    o.Cfg.Strategy.String(),
		Direction:   o.Cfg.Direction.String(),
		Delta:       o.Cfg.Delta,
		NumVertices: o.G.NumVertices(),
		NumEdges:    int64(o.G.NumEdges()),
		Frontier:    frontier,
	}
}

// buildEngine composes the (bucketSource, traversal) pair for the
// configured schedule and seeds it with the initial active set. Per-worker
// state (updaters, bins) is sized from ex's immutable worker count, the
// same count every traversal phase will run with.
func (o *Ordered) buildEngine(sc *scratch, ex *parallel.Executor, active []uint32, ctl *runCtl) *engine {
	n := o.G.NumVertices()
	w := ex.Workers()
	grain := o.Cfg.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}
	ups := sc.getUpdaters(o, w)
	e := &engine{o: o, ups: ups, ex: ex, ctl: ctl}

	switch o.Cfg.Strategy {
	case EagerWithFusion, EagerNoFusion:
		bins := sc.getBins(w)
		for i, v := range active {
			bins[i%w].Insert(o.bucketOf(o.Prio[v]), v)
		}
		for i, u := range ups {
			u.bins = bins[i]
		}
		e.src = &eagerBins{o: o, bins: bins, sc: sc}
		if o.Cfg.Direction == DensePull {
			inFron, _ := sc.getDense(n)
			e.trav = &eagerPull{o: o, ex: ex, ups: ups, inFron: inFron, grain: grain, ctl: ctl}
		} else {
			for _, u := range ups {
				u.atomics = true
			}
			e.trav = &eagerPush{
				o: o, ex: ex, ups: ups, bins: bins,
				fusion: o.Cfg.Strategy == EagerWithFusion,
				grain:  grain,
				ctl:    ctl,
			}
		}
	case LazyConstantSum:
		for _, u := range ups {
			u.atomics = true
		}
		e.src = o.newLazySource(ex, active)
		e.trav = &constSumTrav{o: o, ex: ex, sc: sc, ups: ups, hist: sc.getHist(n), grain: grain, ctl: ctl}
	default: // Lazy
		e.src = o.newLazySource(ex, active)
		t := &lazyTrav{
			o: o, ex: ex, sc: sc, ups: ups, grain: grain,
			pullThreshold: int64(o.G.NumEdges()) / 20,
			ctl:           ctl,
		}
		if !o.Cfg.NoDedup {
			t.dedup = sc.getDedup(n)
		}
		if o.Cfg.Direction != SparsePush {
			t.inFron, t.nextMap = sc.getDense(n)
		}
		e.trav = t
	}
	return e
}

// fold drains the per-worker updater counters into st.
func (e *engine) fold(st *Stats) {
	for _, u := range e.ups {
		st.Relaxations += u.relaxations
		st.Inversions += u.inversions
		st.Processed += u.processed
		st.FusedRounds += u.fused
		u.relaxations, u.inversions, u.processed, u.fused = 0, 0, 0, 0
	}
}

// relax sweeps the round in flight and folds the per-worker counters into
// st — also when the sweep panics, so partial work is always accounted.
func (e *engine) relax(st *Stats) (updated []uint32, pull, aborted bool) {
	defer e.fold(st)
	curPrio := e.bid * e.o.Cfg.Delta
	for _, u := range e.ups {
		u.curBin, u.curPrio = e.bid, curPrio
	}
	return e.trav.relax(e.bid, curPrio, e.frontier)
}

// run drives the engine's rounds through the shared round loop: extract
// the next bucket and check the stop condition, sweep edges, fold
// counters, bulk-update buckets. It returns a retryable fault — a
// *PanicError, or a *StuckError for a round the watchdog interrupted —
// apart from a terminal error (cancellation or no progress); after a fault
// e.bid and e.frontier still name the faulted round.
func (e *engine) run(ctx context.Context, tr Tracer, st *Stats) (fault, err error) {
	o := e.o
	ctl := e.ctl
	return runLoop(ctx, o.Cfg, e.ex, ctl, tr, st, Loop{
		Next: func() bool {
			e.bid, e.frontier = e.src.next()
			return e.bid != bucket.NullBkt && (o.Stop == nil || !o.Stop(e.bid*o.Cfg.Delta))
		},
		Round: func(r *Round) {
			r.Bucket, r.Frontier = e.bid, len(e.frontier)
			updated, pull, aborted := e.relax(st)
			if aborted {
				r.interrupted.Store(true)
				return
			}
			switch ctl.aborted() {
			case abortCancel:
				return
			case abortTimeout:
				// The abort raced with the sweep's completion, so the
				// sweep's effects are fully applied and the timeout is
				// moot; keep the watchdog timing this round's tail.
				ctl.reset()
				ctl.beginRound(st.Rounds)
			}
			if pull {
				st.PullRounds++
			}
			// One global synchronization per round: the sweep's join plus
			// the bulk bucket update (paper Figure 5, lines 12–13).
			st.GlobalSyncs++
			if pe := ctl.phase(PhaseUpdate, func() { e.src.update(updated) }); pe != nil {
				panic(pe) // the round's relax-phase recover passes it on unchanged
			}
			r.updated, r.pull = len(updated), pull
		},
		// A correct (bucketSource, traversal) pair either relaxes edges
		// or advances to another bucket, so the same bucket re-extracted
		// with zero relaxations only happens on a defective composition
		// (or an injected stall).
		stalled: func(prev, ev RoundEvent) bool {
			return ev.Bucket == prev.Bucket && ev.Relaxations == 0
		},
	})
}

// initialActive returns the initial active vertex set — Sources if given,
// otherwise every vertex with a non-null priority — validating priority
// signs along the way (only the scanned vertices can enter buckets, so the
// former O(V) validate pass is free here).
func (o *Ordered) initialActive() ([]uint32, error) {
	null := o.nullPrio()
	if o.Sources != nil {
		act := make([]uint32, 0, len(o.Sources))
		// A repeated source would enter the bins/buckets twice and could be
		// processed twice in the same bucket, inflating Processed and
		// corrupting constant-sum counts; build the active set deduplicated.
		var seen map[uint32]struct{}
		if len(o.Sources) > 1 {
			seen = make(map[uint32]struct{}, len(o.Sources))
		}
		for _, v := range o.Sources {
			if int(v) >= len(o.Prio) {
				return nil, fmt.Errorf("core: source vertex %d out of range (graph has %d vertices)", v, len(o.Prio))
			}
			p := o.Prio[v]
			if p == null {
				continue
			}
			if p < 0 {
				return nil, fmt.Errorf("core: vertex %d has negative priority %d (priorities must be non-negative)", v, p)
			}
			if seen != nil {
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
			}
			act = append(act, v)
		}
		return act, nil
	}
	var act []uint32
	for v, p := range o.Prio {
		if p == null {
			continue
		}
		if p < 0 {
			return nil, fmt.Errorf("core: vertex %d has negative priority %d (priorities must be non-negative)", v, p)
		}
		act = append(act, uint32(v))
	}
	return act, nil
}
