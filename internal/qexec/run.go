package qexec

import (
	"context"
	"fmt"
	"runtime/debug"

	"graphit"
	"graphit/algo"
	"graphit/internal/cliutil"
)

// Code classifies an Outcome for transport adapters. It is deliberately
// transport-neutral: HTTP maps it to status codes, a CLI to exit codes.
type Code int

const (
	// CodeOK: the query produced an answer (possibly via the fallback
	// schedule — see Outcome.Fallback).
	CodeOK Code = iota
	// CodeBadRequest: the request failed validation (plan stage) or
	// surfaced a request-shaped error from the algorithm wrapper itself.
	CodeBadRequest
	// CodeShed: the run slots were busy and the bounded queue was full.
	CodeShed
	// CodeDraining: the pipeline has stopped admitting work.
	CodeDraining
	// CodeClientGone: the caller's context ended while the request waited
	// (queued for a slot, or for a coalesced flight to finish).
	CodeClientGone
	// CodeBudget: the wall-clock budget was exhausted mid-run; partial
	// stats are attached when the engine produced them.
	CodeBudget
	// CodeFault: both the primary and the fallback faulted (or the
	// fallback alone, with the breaker open) — a genuinely hostile run.
	CodeFault
)

// codeNames renders Codes for metrics labels and trace export.
var codeNames = [...]string{
	CodeOK:         "ok",
	CodeBadRequest: "bad_request",
	CodeShed:       "shed",
	CodeDraining:   "draining",
	CodeClientGone: "client_gone",
	CodeBudget:     "budget",
	CodeFault:      "fault",
}

func (c Code) String() string {
	if c >= 0 && int(c) < len(codeNames) {
		return codeNames[c]
	}
	return "invalid"
}

// Outcome is the typed result of one pipeline execution — everything a
// transport needs to render a reply, with no transport types involved.
type Outcome struct {
	// Algo / Graph / Strategy echo the resolved plan (Strategy is empty
	// when planning itself failed).
	Algo     string
	Graph    string
	Strategy string
	// Epoch is the graph epoch the answer was computed against (the
	// snapshot the plan pinned; zero when planning failed).
	Epoch uint64
	// Code classifies the outcome; Err carries the failure detail for
	// every Code but CodeOK.
	Code Code
	Err  error
	// FaultKind is the primary run's contained fault ("panic" or
	// "stuck"), when one occurred — set even when the fallback then
	// answered successfully.
	FaultKind string
	// Breaker is the (algo, strategy) breaker's state after this request.
	Breaker string
	// Fallback reports that the answer was produced by the safe fallback
	// schedule — either transparently after a primary-run fault, or
	// directly because the breaker was open.
	Fallback bool
	// Cached / Coalesced report which pipeline stage served the request
	// without (Cached) or by sharing (Coalesced) an engine run.
	Cached    bool
	Coalesced bool
	// Batched reports that the request went through the batch-coalescing
	// stage; BatchLanes is the lane count of the shared multi-source run
	// that answered it (0 when the window closed solo or the stage only
	// classified a failure).
	Batched    bool
	BatchLanes int
	// Summary is the canonical result summary (CodeOK only).
	Summary algo.Summary
	// Stats are the engine's execution counters (partial after a contained
	// fault or cancellation; a cached outcome carries the producing run's
	// stats).
	Stats *graphit.Stats
}

// fallbackSchedule is the known-safe schedule a faulted or broken (algo,
// strategy) key is re-routed to: lazy bucketing (valid for every algorithm
// and order), serial execution, SparsePush, with the serial-retry machinery
// absorbing any further contained faults deterministically. The watchdogs
// stay armed — fallback runs are still untrusted.
func fallbackSchedule(params cliutil.ScheduleParams) (graphit.Schedule, error) {
	params.Strategy = "lazy"
	params.Direction = "SparsePush"
	params.Workers = 1
	params.OnFault = "retry_serial"
	return params.Schedule()
}

// runShielded executes one algorithm run with a last-resort panic shield:
// the engine contains panics in its own phases and round loops, but
// algorithm code outside them (argument checks, state set-up) could still
// unwind into the pipeline. Any such panic is converted to a
// *graphit.PanicError so every layer above sees one fault taxonomy and the
// process never dies for a query.
func runShielded(ctx context.Context, sp *algo.Spec, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (res *algo.QueryResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &graphit.PanicError{Phase: "qexec.run", Value: r, Stack: debug.Stack()}
		}
	}()
	return sp.Run(ctx, g, src, dst, sched)
}

// route executes pl under the breaker policy for its (algo, strategy) key
// and fills out's code, fault, breaker, and result fields.
func (p *Pipeline) route(ctx context.Context, pl *Plan, out *Outcome) {
	key := pl.BreakerKey()

	var res *algo.QueryResult
	var err error
	primary, done := p.breakers.Route(key)
	if primary {
		res, err = runShielded(ctx, pl.Spec, pl.Graph, pl.Src, pl.Dst, pl.Sched)
		fault := graphit.IsEngineFault(err)
		done(fault)
		if fault {
			out.FaultKind = graphit.ClassifyFault(err)
			if ctx.Err() == nil {
				// Transparent re-route: the caller still gets an answer from
				// the safe schedule, within what remains of its budget.
				if fsched, ferr := fallbackSchedule(pl.Params); ferr == nil {
					p.breakers.RecordFallback(key)
					out.Fallback = true
					res, err = runShielded(ctx, pl.Spec, pl.Graph, pl.Src, pl.Dst, fsched)
				}
			}
		}
	} else {
		out.Fallback = true
		if fsched, ferr := fallbackSchedule(pl.Params); ferr == nil {
			res, err = runShielded(ctx, pl.Spec, pl.Graph, pl.Src, pl.Dst, fsched)
		} else {
			err = ferr
		}
	}
	out.Breaker = p.breakers.State(key).String()
	if res != nil {
		// A copy: pointing into res would keep its whole result vector
		// alive for as long as the outcome stays cached.
		st := res.Stats
		out.Stats = &st
	}

	switch {
	case err == nil:
		out.Code = CodeOK
		out.Summary = algo.Summarize(pl.Spec, res, pl.Dst, pl.Vertices)
	case graphit.ClassifyFault(err) == graphit.FaultKindCanceled:
		out.Code = CodeBudget
		out.Err = fmt.Errorf("budget exhausted: %w", err)
	case graphit.IsEngineFault(err):
		// Both the primary and the fallback faulted (or the fallback alone,
		// with the breaker open) — a genuinely hostile run.
		out.FaultKind = graphit.ClassifyFault(err)
		out.Code = CodeFault
		out.Err = err
	default:
		// A request-shaped error surfaced by the wrapper itself (e.g.
		// k-core rejecting ∆>1): the caller's fault, not the engine's.
		out.Code = CodeBadRequest
		out.Err = err
	}
}
