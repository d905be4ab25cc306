// Package codegen contains the back ends of the DSL compiler:
//
//   - Plan: lowers a checked, analyzed program to an executable plan that
//     runs on the ordered runtime (internal/core), interpreting the
//     user-defined functions. This is the "compile and run" path used by
//     cmd/graphitc and the tests.
//   - Go source emission (goemit.go): renders the program as a standalone
//     Go main using the graphit public API — the Go analogue of the C++
//     code generation shown in paper Figure 9.
package codegen

import (
	"context"
	"fmt"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/core"
	"graphit/internal/graph"
	"graphit/internal/lang"
	"graphit/internal/lang/analysis"
	"graphit/internal/lang/sched"
)

// ExternFunc is a host-bound implementation of an `extern func`. Arguments
// and result are int64 (vertices, ints, bools-as-ints).
type ExternFunc func(args ...int64) int64

// Plan is a compiled program ready to execute.
type Plan struct {
	Checked   *lang.Checked
	Analysis  *analysis.Result
	Schedules sched.Schedules
}

// Compile parses, checks, analyzes, and schedule-resolves a program.
func Compile(src string) (*Plan, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileProgram(prog)
}

// CompileProgram is Compile over a parsed AST. Constant folding runs first
// so the analyses see literal facts (e.g. `0 - 1` qualifies as Figure 10's
// constant delta).
func CompileProgram(prog *lang.Program) (*Plan, error) {
	prog = lang.Fold(prog)
	chk, err := lang.Check(prog)
	if err != nil {
		return nil, err
	}
	res, err := analysis.Analyze(chk)
	if err != nil {
		return nil, err
	}
	schedules, err := sched.Resolve(prog.Schedule)
	if err != nil {
		return nil, err
	}
	return &Plan{Checked: chk, Analysis: res, Schedules: schedules}, nil
}

// ApplySchedule resolves additional scheduling text (e.g. from a separate
// schedule file or command-line), overriding the program's own schedule.
func (p *Plan) ApplySchedule(text string) error {
	calls, err := sched.ParseText(text)
	if err != nil {
		return err
	}
	extra, err := sched.Resolve(calls)
	if err != nil {
		return err
	}
	for label, s := range extra {
		p.Schedules[label] = s
	}
	return nil
}

// ExecOptions configure one plan execution.
type ExecOptions struct {
	// Graph overrides load(argv[1]); when nil the path argv[1] is loaded.
	Graph *graph.Graph
	// Argv is the program's argument vector; argv[0] is conventionally the
	// program name, matching the paper's examples (argv[1] = graph path,
	// argv[2] = start vertex, ...).
	Argv []string
	// Externs bind `extern func` declarations to Go implementations.
	Externs map[string]ExternFunc
}

// ExecResult is the outcome of a plan execution.
type ExecResult struct {
	// Vectors holds the final contents of every vector global.
	Vectors map[string][]int64
	// Stats are the ordered engine's counters.
	Stats core.Stats
	// Printed collects the output of print statements, one entry each.
	Printed []string
}

// Execute runs the plan to completion.
func (p *Plan) Execute(opt ExecOptions) (*ExecResult, error) {
	return p.execute(context.Background(), opt)
}

// execute is Execute under ctx: the ordered loop, extern-driven or not,
// runs inside the engine's envelope with ctx's cancellation, tracer and
// fault hook.
func (p *Plan) execute(ctx context.Context, opt ExecOptions) (*ExecResult, error) {
	chk := p.Checked
	for _, d := range chk.Prog.Decls {
		if fd, ok := d.(*lang.FuncDecl); ok && fd.Extern {
			if opt.Externs[fd.Name] == nil {
				return nil, fmt.Errorf("codegen: extern func %q is not bound", fd.Name)
			}
		}
	}
	g := opt.Graph
	if g == nil {
		if len(opt.Argv) < 2 {
			return nil, fmt.Errorf("codegen: no graph given and argv[1] missing")
		}
		var err error
		g, err = graph.LoadFile(opt.Argv[1], graph.BuildOptions{
			Weighted: chk.Weighted,
			InEdges:  true,
		})
		if err != nil {
			return nil, err
		}
	}
	env := &execEnv{
		ctx:     ctx,
		plan:    p,
		g:       g,
		argv:    opt.Argv,
		externs: opt.Externs,
		vectors: map[string][]int64{},
		ints:    map[string]int64{},
		strs:    map[string]string{},
	}
	if err := env.initVectors(); err != nil {
		return nil, err
	}
	// Pre-loop statements of main (vector element writes, pq construction).
	for _, s := range p.Analysis.Pre {
		if err := env.execMainStmt(s); err != nil {
			return nil, err
		}
	}
	// The ordered loop itself.
	var st core.Stats
	if p.Analysis.Loop != nil {
		if chk.PQ == nil || !env.pqBuilt {
			return nil, fmt.Errorf("codegen: ordered loop reached before the priority queue was constructed")
		}
		var err error
		if p.Analysis.Loop.ExternDriven {
			st, err = env.runExternLoop()
		} else {
			st, err = env.runOrderedLoop()
		}
		if err != nil {
			return nil, err
		}
	}
	for _, s := range p.Analysis.Post {
		if err := env.execMainStmt(s); err != nil {
			return nil, err
		}
	}
	return &ExecResult{Vectors: env.vectors, Stats: st, Printed: env.printed}, nil
}

// runOrderedLoop builds the core operator for the recognized loop and runs
// it — the runtime analogue of the compiler's while-loop replacement
// (paper §5.2).
func (env *execEnv) runOrderedLoop() (core.Stats, error) {
	p := env.plan
	loop := p.Analysis.Loop
	pq := p.Checked.PQ
	s := p.Schedules.Get(loop.Label)
	cfg := s.Config()
	if !pq.AllowCoarsening && cfg.Delta > 1 {
		return core.Stats{}, fmt.Errorf("codegen: schedule sets ∆=%d but the priority queue disallows coarsening", cfg.Delta)
	}
	prio := env.vectors[pq.PriorityVector]
	order := bucket.Increasing
	if !pq.LowerFirst {
		order = bucket.Decreasing
	}
	info := p.Analysis.UDFs[loop.UDFName]
	op := &core.Ordered{
		G:     env.g,
		Prio:  prio,
		Order: order,
		// Finalize-on-dequeue is exactly the no-coarsening contract of
		// paper §2: without coarsening, dequeued vertices are final.
		FinalizeOnPop: !pq.AllowCoarsening,
		Cfg:           cfg,
	}
	if cfg.Strategy == core.LazyConstantSum {
		if info.ConstantSum == nil {
			return core.Stats{}, fmt.Errorf("codegen: schedule requests lazy_constant_sum but %s does not qualify (needs a single constant updatePrioritySum)", loop.UDFName)
		}
		op.SumConst = info.ConstantSum.Const
		op.SumFloorIsCurrent = info.ConstantSum.ThresholdIsCurrentPriority
	}
	op.Apply = env.compileUDF(info)
	if pq.StartExpr != nil {
		start, err := env.evalMainInt(pq.StartExpr)
		if err != nil {
			return core.Stats{}, err
		}
		op.Sources = []uint32{uint32(start)}
	}
	if loop.StopVertex != nil {
		target, err := env.evalMainInt(loop.StopVertex)
		if err != nil {
			return core.Stats{}, err
		}
		tv := uint32(target)
		null := core.Unreached
		if order == bucket.Decreasing {
			null = core.NullMax
		}
		op.Stop = func(cur int64) bool {
			best := atomicutil.Load(&prio[tv])
			return best != null && cur >= best
		}
	}
	st, err := op.RunContext(env.ctx)
	if err != nil {
		return st, err
	}
	if e := env.udfErr.Load(); e != nil {
		return st, *e
	}
	return st, nil
}
