package qexec

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/cliutil"
)

// ErrBatchAbandoned is the error followers observe when a batch leader
// panicked out of its run without delivering lane outcomes.
var ErrBatchAbandoned = errors.New("batched run abandoned: leader panicked")

// batchLane is one request's seat in a batch group. out is set — by the
// leader, before done closes — to the lane's own Outcome.
type batchLane struct {
	pl  *Plan
	out *Outcome
}

// batchGroup is one admission window's worth of batchable plans sharing a
// batch key. The first joiner (the leader) holds the window open; sealing —
// by the window timer or by the group filling to maxLanes — removes the
// group from the map, after which lanes is immutable and the leader executes
// all of it as one k-lane engine run.
type batchGroup struct {
	lanes  []*batchLane
	sealed bool
	sealCh chan struct{} // closed when the group fills to maxLanes
	done   chan struct{} // closed after every lane's out is set
}

// batcher is the batch-coalescing stage: admitted plans that agree on
// (algo, graph, epoch, schedule, budget) but differ in src/dst collect for a
// short admission window and execute as one multi-source run, each lane
// fanned back out (and cached) under its own single-source identity. It sits
// behind the singleflight: identical plans coalesce into one flight first,
// and only distinct flights occupy lanes.
type batcher struct {
	window   time.Duration
	maxLanes int

	mu sync.Mutex
	m  map[string]*batchGroup

	// Counters for /statusz: windows opened, multi-lane runs executed, lanes
	// those runs carried, and windows that closed with a single occupant.
	windows, multiRuns, lanes, solo int64
}

func newBatcher(window time.Duration, maxLanes int) *batcher {
	return &batcher{window: window, maxLanes: maxLanes, m: make(map[string]*batchGroup)}
}

// join adds pl to the open group for key, creating one (and returning
// leader=true) when none is open. A join that fills the group to maxLanes
// seals it immediately so the leader stops waiting out the window.
func (b *batcher) join(key string, pl *Plan) (g *batchGroup, ln *batchLane, leader bool) {
	ln = &batchLane{pl: pl}
	b.mu.Lock()
	defer b.mu.Unlock()
	if g, ok := b.m[key]; ok {
		g.lanes = append(g.lanes, ln)
		if len(g.lanes) >= b.maxLanes {
			g.sealed = true
			delete(b.m, key)
			close(g.sealCh)
		}
		return g, ln, false
	}
	g = &batchGroup{
		lanes:  []*batchLane{ln},
		sealCh: make(chan struct{}),
		done:   make(chan struct{}),
	}
	b.m[key] = g
	b.windows++
	return g, ln, true
}

// seal closes the group to new joiners (idempotent with the maxLanes seal in
// join) and returns its final occupancy, recording the solo/multi split.
func (b *batcher) seal(key string, g *batchGroup) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !g.sealed {
		g.sealed = true
		delete(b.m, key)
	}
	k := len(g.lanes)
	if k > 1 {
		b.multiRuns++
		b.lanes += int64(k)
	} else {
		b.solo++
	}
	return k
}

// batched dispatches the admit/route/run tail, interposing the
// batch-coalescing stage when it is enabled and pl qualifies. It is the one
// seam between the coalescer and execute: every non-cached request funnels
// through here.
func (p *Pipeline) batched(ctx context.Context, pl *Plan, detached bool, et *execTrace) *Outcome {
	if p.batch == nil || !pl.batchable() {
		return p.execute(ctx, pl, detached, et)
	}
	key := pl.batchKey()
	g, ln, leader := p.batch.join(key, pl)
	if !leader {
		// Follower: the leader computes this lane; wait for delivery. A
		// follower whose caller gives up leaves its lane in place — the
		// leader still computes (and caches) the answer, it just goes
		// unread.
		t := time.Now()
		select {
		case <-g.done:
			et.batchWait = time.Since(t)
			p.met.observeBatchWait(et.batchWait)
			if ln.out == nil {
				return &Outcome{Algo: pl.Spec.Name, Graph: pl.GraphName, Strategy: pl.Strategy,
					Epoch: pl.Epoch, Code: CodeFault, Err: ErrBatchAbandoned, Batched: true}
			}
			return ln.out
		case <-ctx.Done():
			et.batchWait = time.Since(t)
			p.met.observeBatchWait(et.batchWait)
			return &Outcome{Algo: pl.Spec.Name, Graph: pl.GraphName, Strategy: pl.Strategy,
				Epoch: pl.Epoch, Code: CodeClientGone, Err: ctx.Err(), Batched: true}
		}
	}

	// Leader: hold the admission window open, then seal and execute. done is
	// closed in a defer so a panicking run cannot leave followers hanging —
	// they observe their nil lane.out and synthesize ErrBatchAbandoned.
	t := time.Now()
	timer := time.NewTimer(p.batch.window)
	select {
	case <-timer.C:
	case <-g.sealCh:
		timer.Stop()
	}
	k := p.batch.seal(key, g)
	et.batchWait = time.Since(t)
	p.met.observeBatchWait(et.batchWait)
	p.met.observeBatch(k)
	defer close(g.done)
	if k == 1 {
		// The window closed empty: run the lane as an ordinary single-source
		// execution, keeping the caller's attachment semantics. Batched still
		// marks the outcome — the request paid the window — with BatchLanes
		// left zero to record that no sharing happened.
		ln.out = p.execute(ctx, pl, detached, et)
		ln.out.Batched = true
		return ln.out
	}
	outs := p.executeBatch(ctx, g.lanes, et)
	for i, l := range g.lanes {
		l.out = outs[i]
	}
	return ln.out
}

// executeBatch runs k lanes as one multi-source engine execution: one
// admission slot, one detached budget-bounded context, one breaker verdict,
// and per-lane summarization and caching. Every lane shares the leader's
// pinned snapshot epoch (the batch key guarantees it), so the leader's plan
// holding its snapshot through this call keeps the graph frozen for all of
// them.
func (p *Pipeline) executeBatch(ctx context.Context, lanes []*batchLane, et *execTrace) []*Outcome {
	lead := lanes[0].pl
	k := len(lanes)
	outs := make([]*Outcome, k)
	for i, ln := range lanes {
		outs[i] = &Outcome{Algo: ln.pl.Spec.Name, Graph: ln.pl.GraphName, Strategy: ln.pl.Strategy,
			Epoch: ln.pl.Epoch, Batched: true, BatchLanes: k}
	}
	fail := func(code Code, err error) []*Outcome {
		for _, out := range outs {
			out.Code, out.Err = code, err
		}
		return outs
	}

	// A batch is always detached: followers depend on the run, so no single
	// caller's cancellation may tear it down. The shared budget (identical
	// across lanes, by key) bounds both the queue wait and the run.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), lead.Budget)
	defer cancel()

	// Admit: the whole batch occupies one run slot — that is the point.
	t := time.Now()
	release, err := p.adm.acquire(ctx)
	et.queueWait = time.Since(t)
	p.met.observeQueueWait(et.queueWait)
	switch err {
	case nil:
	case ErrShed:
		return fail(CodeShed, err)
	case ErrDraining:
		return fail(CodeDraining, err)
	default: // the only clock on a detached batch is the budget
		return fail(CodeBudget, fmt.Errorf("budget exhausted: %w", err))
	}
	defer release()

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	stop := context.AfterFunc(p.killCtx, cancelRun)
	defer stop()
	if p.cfg.BaseContext != nil {
		runCtx = p.cfg.BaseContext(runCtx)
	}
	var rt *runTracer
	if p.met != nil || p.ring != nil {
		rt = newRunTracer(p.met, lead.Spec.Name, lead.GraphName, p.ring != nil)
		runCtx = graphit.WithTracer(runCtx, rt)
		p.met.ensureBreakerGauge(lead.BreakerKey(), p.breakers)
	}

	p.beginRun()
	defer p.endRun()
	p.runs.Add(1)
	t = time.Now()
	p.routeMulti(runCtx, lanes, outs)
	et.run = time.Since(t)
	p.met.observeRun(et.run)
	if rt != nil {
		et.events, et.rounds, et.truncated = rt.events, rt.rounds, rt.truncated
	}

	// Per-lane caching under each lane's own single-source key: the next
	// request for any one of these sources hits the cache stage directly.
	if p.cache != nil {
		for i, ln := range lanes {
			if outs[i].Code == CodeOK && !outs[i].Fallback {
				p.cache.put(ln.pl.CacheKey, ln.pl.GraphName, ln.pl.Epoch, outs[i].Summary, outs[i].Stats)
			}
		}
	}
	return outs
}

// multiFallbackSchedule is the batch analogue of fallbackSchedule: lazy
// bucketing, serial, SparsePush — but with the fail policy, because the
// k-lane engine rejects retry_serial (a deterministic serial re-run is
// undefined for a shared frontier). A fault in the fallback therefore
// surfaces instead of retrying.
func multiFallbackSchedule(params cliutil.ScheduleParams) (graphit.Schedule, error) {
	params.Strategy = "lazy"
	params.Direction = "SparsePush"
	params.Workers = 1
	params.OnFault = "fail"
	return params.Schedule()
}

// runMultiShielded is runShielded for the k-lane entry point: any panic that
// escapes the engine's own containment becomes a *graphit.PanicError.
func runMultiShielded(ctx context.Context, sp *algo.Spec, g *graphit.Graph, srcs, dsts []graphit.VertexID, sched graphit.Schedule) (res []*algo.QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &graphit.PanicError{Phase: "qexec.runmulti", Value: r, Stack: debug.Stack()}
		}
	}()
	return sp.RunMulti(ctx, g, srcs, dsts, sched)
}

// routeMulti executes the lanes under the breaker policy for their shared
// (algo, strategy) key and fills every lane's outcome. It mirrors route():
// one breaker verdict covers the run, a primary fault triggers one
// transparent fallback attempt, and the error taxonomy is applied uniformly
// — every lane of a shared run succeeds or fails together.
func (p *Pipeline) routeMulti(ctx context.Context, lanes []*batchLane, outs []*Outcome) {
	lead := lanes[0].pl
	key := lead.BreakerKey()
	srcs := make([]graphit.VertexID, len(lanes))
	dsts := make([]graphit.VertexID, len(lanes))
	for i, ln := range lanes {
		srcs[i], dsts[i] = ln.pl.Src, ln.pl.Dst
	}

	var res []*algo.QueryResult
	var err error
	primary, done := p.breakers.Route(key)
	var faultKind string
	fallback := false
	if primary {
		res, err = runMultiShielded(ctx, lead.Spec, lead.Graph, srcs, dsts, lead.Sched)
		fault := graphit.IsEngineFault(err)
		done(fault)
		if fault {
			faultKind = graphit.ClassifyFault(err)
			if ctx.Err() == nil {
				if fsched, ferr := multiFallbackSchedule(lead.Params); ferr == nil {
					p.breakers.RecordFallback(key)
					fallback = true
					res, err = runMultiShielded(ctx, lead.Spec, lead.Graph, srcs, dsts, fsched)
				}
			}
		}
	} else {
		fallback = true
		if fsched, ferr := multiFallbackSchedule(lead.Params); ferr == nil {
			res, err = runMultiShielded(ctx, lead.Spec, lead.Graph, srcs, dsts, fsched)
		} else {
			err = ferr
		}
	}
	breaker := p.breakers.State(key).String()

	for i, ln := range lanes {
		out := outs[i]
		out.Breaker = breaker
		out.FaultKind = faultKind
		out.Fallback = fallback
		if res != nil && i < len(res) && res[i] != nil {
			// A copy, as in route: the cached outcome must not pin the
			// lane's result vector.
			st := res[i].Stats
			out.Stats = &st
		}
		switch {
		case err == nil:
			out.Code = CodeOK
			out.Summary = algo.Summarize(ln.pl.Spec, res[i], ln.pl.Dst, ln.pl.Vertices)
		case graphit.ClassifyFault(err) == graphit.FaultKindCanceled:
			out.Code = CodeBudget
			out.Err = fmt.Errorf("budget exhausted: %w", err)
		case graphit.IsEngineFault(err):
			out.FaultKind = graphit.ClassifyFault(err)
			out.Code = CodeFault
			out.Err = err
		default:
			out.Code = CodeBadRequest
			out.Err = err
		}
	}
}

// BatchStatus is the batch-coalescing stage's externally visible state.
type BatchStatus struct {
	WindowMS int64 `json:"window_ms"`
	MaxLanes int   `json:"max_lanes"`
	// Windows counts admission windows opened; MultiRuns the windows that
	// closed with ≥2 lanes and executed as one multi-source run; Lanes the
	// total lanes those runs carried; Solo the windows that closed with a
	// single occupant and ran as ordinary single-source executions.
	Windows   int64 `json:"windows"`
	MultiRuns int64 `json:"multi_runs"`
	Lanes     int64 `json:"lanes"`
	Solo      int64 `json:"solo"`
}

func (b *batcher) status() BatchStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BatchStatus{
		WindowMS:  b.window.Milliseconds(),
		MaxLanes:  b.maxLanes,
		Windows:   b.windows,
		MultiRuns: b.multiRuns,
		Lanes:     b.lanes,
		Solo:      b.solo,
	}
}
