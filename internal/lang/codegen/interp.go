package codegen

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"graphit/internal/atomicutil"
	"graphit/internal/core"
	"graphit/internal/graph"
	"graphit/internal/lang"
	"graphit/internal/lang/analysis"
)

// execEnv is the interpreter state for one plan execution.
type execEnv struct {
	ctx     context.Context
	plan    *Plan
	g       *graph.Graph
	argv    []string
	externs map[string]ExternFunc
	vectors map[string][]int64
	// Main's locals (int-like and string).
	ints map[string]int64
	strs map[string]string

	pqBuilt bool
	printed []string
	// udfErr records the first UDF runtime error (see compileUDF).
	udfErr atomic.Pointer[error]
}

// initVectors allocates every vector global and applies its initializer
// (INT_MAX denotes the null priority ∅, INT_MIN its higher_first analogue).
func (env *execEnv) initVectors() error {
	n := env.g.NumVertices()
	for name, gi := range env.plan.Checked.Globals {
		if gi.Type.Kind != "vector" {
			continue
		}
		vec := make([]int64, n)
		if gi.Decl.Init != nil {
			v, err := env.evalMainInt(gi.Decl.Init)
			if err != nil {
				return err
			}
			for i := range vec {
				vec[i] = v
			}
		}
		env.vectors[name] = vec
	}
	return nil
}

func (env *execEnv) errf(p lang.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

// ---- main-statement execution (serial, outside the ordered loop) ----

func (env *execEnv) execMainStmt(s lang.Stmt) error {
	switch s := s.(type) {
	case *lang.VarDeclStmt:
		if s.Init == nil {
			env.ints[s.Name] = 0
			return nil
		}
		if s.Type.Kind == "string" {
			str, err := env.evalMainString(s.Init)
			if err != nil {
				return err
			}
			env.strs[s.Name] = str
			return nil
		}
		v, err := env.evalMainInt(s.Init)
		if err != nil {
			return err
		}
		env.ints[s.Name] = v
		return nil
	case *lang.AssignStmt:
		return env.execMainAssign(s)
	case *lang.PrintStmt:
		v, err := env.evalMainInt(s.E)
		if err != nil {
			return err
		}
		env.printed = append(env.printed, strconv.FormatInt(v, 10))
		return nil
	case *lang.DeleteStmt:
		return nil
	case *lang.ExprStmt:
		_, err := env.evalMainInt(s.E)
		return err
	case *lang.IfStmt:
		c, err := env.evalMainInt(s.Cond)
		if err != nil {
			return err
		}
		body := s.Then
		if c == 0 {
			body = s.Else
		}
		for _, inner := range body {
			if err := env.execMainStmt(inner); err != nil {
				return err
			}
		}
		return nil
	case *lang.LabeledStmt:
		return env.execMainStmt(s.S)
	}
	return fmt.Errorf("codegen: unsupported statement in main outside the ordered loop: %T", s)
}

func (env *execEnv) execMainAssign(s *lang.AssignStmt) error {
	switch lhs := s.LHS.(type) {
	case *lang.IdentExpr:
		// pq = new priority_queue{...}: capture construction.
		if env.plan.Checked.PQNamed(lhs.Name) {
			if _, ok := s.RHS.(*lang.NewPQExpr); !ok {
				return env.errf(s.Pos, "priority queue must be assigned a constructor")
			}
			env.pqBuilt = true
			return nil
		}
		// Whole-vector assignment: degree init or scalar broadcast.
		if vec, ok := env.vectors[lhs.Name]; ok {
			if mc, ok2 := s.RHS.(*lang.MethodCallExpr); ok2 && mc.Method == "getOutDegrees" {
				for i := range vec {
					vec[i] = int64(env.g.OutDegree(uint32(i)))
				}
				return nil
			}
			v, err := env.evalMainInt(s.RHS)
			if err != nil {
				return err
			}
			for i := range vec {
				vec[i] = v
			}
			return nil
		}
		v, err := env.evalMainInt(s.RHS)
		if err != nil {
			return err
		}
		switch s.Op {
		case lang.Assign:
			env.ints[lhs.Name] = v
		case lang.PlusAssign:
			env.ints[lhs.Name] += v
		case lang.MinAssign:
			if v < env.ints[lhs.Name] {
				env.ints[lhs.Name] = v
			}
		}
		return nil
	case *lang.IndexExpr:
		name, vec, err := env.vectorOf(lhs.X)
		if err != nil {
			return err
		}
		_ = name
		idx, err := env.evalMainInt(lhs.Index)
		if err != nil {
			return err
		}
		if idx < 0 || idx >= int64(len(vec)) {
			return env.errf(s.Pos, "vector index %d out of range [0,%d)", idx, len(vec))
		}
		v, err := env.evalMainInt(s.RHS)
		if err != nil {
			return err
		}
		switch s.Op {
		case lang.Assign:
			vec[idx] = v
		case lang.PlusAssign:
			vec[idx] += v
		case lang.MinAssign:
			if v < vec[idx] {
				vec[idx] = v
			}
		}
		return nil
	}
	return env.errf(s.Pos, "unsupported assignment")
}

func (env *execEnv) vectorOf(e lang.Expr) (string, []int64, error) {
	id, ok := e.(*lang.IdentExpr)
	if !ok {
		return "", nil, env.errf(e.Position(), "expected a vector name")
	}
	vec, ok := env.vectors[id.Name]
	if !ok {
		return "", nil, env.errf(e.Position(), "%q is not a vector", id.Name)
	}
	return id.Name, vec, nil
}

// ---- main-expression evaluation ----

func (env *execEnv) evalMainString(e lang.Expr) (string, error) {
	switch e := e.(type) {
	case *lang.StringLit:
		return e.Value, nil
	case *lang.IndexExpr:
		if id, ok := e.X.(*lang.IdentExpr); ok && id.Name == "argv" {
			i, err := env.evalMainInt(e.Index)
			if err != nil {
				return "", err
			}
			if i < 0 || i >= int64(len(env.argv)) {
				return "", env.errf(e.Pos, "argv[%d] out of range (have %d args)", i, len(env.argv))
			}
			return env.argv[i], nil
		}
	case *lang.IdentExpr:
		if s, ok := env.strs[e.Name]; ok {
			return s, nil
		}
	}
	return "", env.errf(e.Position(), "expected a string expression")
}

func (env *execEnv) evalMainInt(e lang.Expr) (int64, error) {
	return env.evalInt(e, nil, nil)
}

// ---- shared expression evaluation ----
//
// frame holds UDF locals; q is the per-worker updater (nil outside UDFs).
// Vector reads are atomic inside UDFs (parallel context) and plain outside.

func (env *execEnv) evalInt(e lang.Expr, frame map[string]int64, q *core.Updater) (int64, error) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Value, nil
	case *lang.BoolLit:
		if e.Value {
			return 1, nil
		}
		return 0, nil
	case *lang.IdentExpr:
		switch e.Name {
		case "INT_MAX":
			return core.Unreached, nil
		case "INT_MIN":
			return core.NullMax, nil
		}
		if frame != nil {
			if v, ok := frame[e.Name]; ok {
				return v, nil
			}
		}
		if v, ok := env.ints[e.Name]; ok {
			return v, nil
		}
		return 0, env.errf(e.Pos, "undefined value %q", e.Name)
	case *lang.UnaryExpr:
		v, err := env.evalInt(e.X, frame, q)
		if err != nil {
			return 0, err
		}
		if e.Op == lang.Minus {
			return -v, nil
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case *lang.BinaryExpr:
		l, err := env.evalInt(e.L, frame, q)
		if err != nil {
			return 0, err
		}
		// Short-circuit boolean operators.
		switch e.Op {
		case lang.AndAnd:
			if l == 0 {
				return 0, nil
			}
			return env.evalInt(e.R, frame, q)
		case lang.OrOr:
			if l != 0 {
				return 1, nil
			}
			return env.evalInt(e.R, frame, q)
		}
		r, err := env.evalInt(e.R, frame, q)
		if err != nil {
			return 0, err
		}
		return applyBinop(e.Op, l, r)
	case *lang.IndexExpr:
		if _, ok := e.X.(*lang.IdentExpr); ok {
			_, vec, err := env.vectorOf(e.X)
			if err != nil {
				return 0, err
			}
			i, err := env.evalInt(e.Index, frame, q)
			if err != nil {
				return 0, err
			}
			if i < 0 || i >= int64(len(vec)) {
				return 0, env.errf(e.Pos, "vector index %d out of range", i)
			}
			if q != nil {
				return atomicutil.Load(&vec[i]), nil
			}
			return vec[i], nil
		}
		return 0, env.errf(e.Pos, "unsupported index expression")
	case *lang.CallExpr:
		return env.evalCall(e, frame, q)
	case *lang.MethodCallExpr:
		return env.evalMethod(e, frame, q)
	}
	return 0, env.errf(e.Position(), "unsupported expression %T", e)
}

func applyBinop(op lang.Kind, l, r int64) (int64, error) {
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case lang.Plus:
		return l + r, nil
	case lang.Minus:
		return l - r, nil
	case lang.Star:
		return l * r, nil
	case lang.Slash:
		if r == 0 {
			return 0, fmt.Errorf("codegen: division by zero")
		}
		return l / r, nil
	case lang.Eq:
		return b(l == r), nil
	case lang.Neq:
		return b(l != r), nil
	case lang.Lt:
		return b(l < r), nil
	case lang.Gt:
		return b(l > r), nil
	case lang.Le:
		return b(l <= r), nil
	case lang.Ge:
		return b(l >= r), nil
	}
	return 0, fmt.Errorf("codegen: unsupported operator %s", op)
}

func (env *execEnv) evalCall(e *lang.CallExpr, frame map[string]int64, q *core.Updater) (int64, error) {
	switch e.Fn {
	case "atoi":
		s, err := env.evalMainString(e.Args[0])
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, env.errf(e.Pos, "atoi(%q): %v", s, err)
		}
		return v, nil
	case "to_vertex":
		return env.evalInt(e.Args[0], frame, q)
	}
	if ext := env.externs[e.Fn]; ext != nil {
		args := make([]int64, len(e.Args))
		for i, a := range e.Args {
			v, err := env.evalInt(a, frame, q)
			if err != nil {
				return 0, err
			}
			args[i] = v
		}
		return ext(args...), nil
	}
	fd := env.plan.Checked.Funcs[e.Fn]
	if fd == nil {
		return 0, env.errf(e.Pos, "call of unknown function %q", e.Fn)
	}
	args := make([]int64, len(e.Args))
	for i, a := range e.Args {
		v, err := env.evalInt(a, frame, q)
		if err != nil {
			return 0, err
		}
		args[i] = v
	}
	return env.callUserFunc(fd, args, q)
}

// callUserFunc interprets a user function body with scalar arguments.
func (env *execEnv) callUserFunc(fd *lang.FuncDecl, args []int64, q *core.Updater) (int64, error) {
	frame := make(map[string]int64, len(fd.Params)+4)
	for i, p := range fd.Params {
		frame[p.Name] = args[i]
	}
	ret, _, err := env.execUDFStmts(fd.Body, frame, q)
	if err != nil {
		return 0, err
	}
	return ret, nil
}

// evalMethod handles priority-queue operator calls inside UDFs and the few
// query methods valid in main.
func (env *execEnv) evalMethod(e *lang.MethodCallExpr, frame map[string]int64, q *core.Updater) (int64, error) {
	recv, ok := e.Recv.(*lang.IdentExpr)
	if !ok || !env.plan.Checked.PQNamed(recv.Name) {
		return 0, env.errf(e.Pos, "unsupported method receiver %s", e.Recv)
	}
	if q == nil {
		return 0, env.errf(e.Pos, "priority-queue operator %s is only valid inside edge functions", e.Method)
	}
	b := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch e.Method {
	case "getCurrentPriority":
		return q.GetCurrentPriority(), nil
	case "finishedVertex":
		v, err := env.evalInt(e.Args[0], frame, q)
		if err != nil {
			return 0, err
		}
		return b(q.FinishedVertex(uint32(v))), nil
	case "updatePriorityMin", "updatePriorityMax":
		v, err := env.evalInt(e.Args[0], frame, q)
		if err != nil {
			return 0, err
		}
		nv, err := env.evalInt(e.Args[len(e.Args)-1], frame, q)
		if err != nil {
			return 0, err
		}
		if e.Method == "updatePriorityMin" {
			return b(q.UpdatePriorityMin(uint32(v), nv)), nil
		}
		return b(q.UpdatePriorityMax(uint32(v), nv)), nil
	case "updatePrioritySum":
		v, err := env.evalInt(e.Args[0], frame, q)
		if err != nil {
			return 0, err
		}
		delta, err := env.evalInt(e.Args[1], frame, q)
		if err != nil {
			return 0, err
		}
		floor := int64(core.NullMax + 1)
		if len(e.Args) == 3 {
			floor, err = env.evalInt(e.Args[2], frame, q)
			if err != nil {
				return 0, err
			}
		}
		return b(q.UpdatePrioritySum(uint32(v), delta, floor)), nil
	}
	return 0, env.errf(e.Pos, "unsupported priority-queue method %q here", e.Method)
}

// ---- UDF compilation ----

// compileUDF returns the engine EdgeFunc that interprets the analyzed UDF.
// The schedule decides atomicity through the engine's Updater, exactly as
// the compiler's inserted instructions would (paper §5.1); `min=` writes
// become atomic write-mins inside parallel contexts.
//
// UDF runtime errors (division by zero, extern misbehavior) cannot unwind
// out of engine worker goroutines, so the first error is recorded and the
// UDF becomes a no-op; runOrderedLoop surfaces it after the run drains.
func (env *execEnv) compileUDF(info *analysis.UDFInfo) core.EdgeFunc {
	fd := info.Func
	return func(src, dst graph.VertexID, w graph.Weight, q *core.Updater) {
		if env.udfErr.Load() != nil {
			return
		}
		frame := map[string]int64{
			info.SrcName: int64(src),
			info.DstName: int64(dst),
		}
		if info.WeightName != "" {
			frame[info.WeightName] = int64(w)
		}
		if _, _, err := env.execUDFStmts(fd.Body, frame, q); err != nil {
			wrapped := fmt.Errorf("graphit UDF %s: %w", fd.Name, err)
			env.udfErr.CompareAndSwap(nil, &wrapped)
		}
	}
}

// execUDFStmts interprets statements inside a UDF (or user function).
// It returns (returnValue, returned, error).
func (env *execEnv) execUDFStmts(stmts []lang.Stmt, frame map[string]int64, q *core.Updater) (int64, bool, error) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *lang.VarDeclStmt:
			var v int64
			var err error
			if s.Init != nil {
				v, err = env.evalInt(s.Init, frame, q)
				if err != nil {
					return 0, false, err
				}
			}
			frame[s.Name] = v
		case *lang.AssignStmt:
			if err := env.execUDFAssign(s, frame, q); err != nil {
				return 0, false, err
			}
		case *lang.ExprStmt:
			if _, err := env.evalInt(s.E, frame, q); err != nil {
				return 0, false, err
			}
		case *lang.IfStmt:
			c, err := env.evalInt(s.Cond, frame, q)
			if err != nil {
				return 0, false, err
			}
			body := s.Then
			if c == 0 {
				body = s.Else
			}
			ret, returned, err := env.execUDFStmts(body, frame, q)
			if err != nil || returned {
				return ret, returned, err
			}
		case *lang.WhileStmt:
			for {
				c, err := env.evalInt(s.Cond, frame, q)
				if err != nil {
					return 0, false, err
				}
				if c == 0 {
					break
				}
				ret, returned, err := env.execUDFStmts(s.Body, frame, q)
				if err != nil || returned {
					return ret, returned, err
				}
			}
		case *lang.ReturnStmt:
			if s.E == nil {
				return 0, true, nil
			}
			v, err := env.evalInt(s.E, frame, q)
			return v, true, err
		case *lang.LabeledStmt:
			ret, returned, err := env.execUDFStmts([]lang.Stmt{s.S}, frame, q)
			if err != nil || returned {
				return ret, returned, err
			}
		default:
			return 0, false, fmt.Errorf("codegen: unsupported statement %T in function body", s)
		}
	}
	return 0, false, nil
}

// execUDFAssign performs a UDF assignment with the atomicity the conflict
// analysis requires: vector writes use atomic stores / write-mins, local
// variable writes are plain.
func (env *execEnv) execUDFAssign(s *lang.AssignStmt, frame map[string]int64, q *core.Updater) error {
	v, err := env.evalInt(s.RHS, frame, q)
	if err != nil {
		return err
	}
	switch lhs := s.LHS.(type) {
	case *lang.IdentExpr:
		old, ok := frame[lhs.Name]
		if !ok {
			return env.errf(s.Pos, "assignment to non-local %q inside an edge function", lhs.Name)
		}
		switch s.Op {
		case lang.Assign:
			frame[lhs.Name] = v
		case lang.PlusAssign:
			frame[lhs.Name] = old + v
		case lang.MinAssign:
			if v < old {
				frame[lhs.Name] = v
			}
		}
		return nil
	case *lang.IndexExpr:
		_, vec, err := env.vectorOf(lhs.X)
		if err != nil {
			return err
		}
		i, err := env.evalInt(lhs.Index, frame, q)
		if err != nil {
			return err
		}
		if i < 0 || i >= int64(len(vec)) {
			return env.errf(s.Pos, "vector index %d out of range", i)
		}
		switch s.Op {
		case lang.Assign:
			atomicutil.Store(&vec[i], v)
		case lang.PlusAssign:
			atomicutil.AddClamped(&vec[i], v, core.NullMax+1)
		case lang.MinAssign:
			atomicutil.WriteMin(&vec[i], v)
		}
		return nil
	}
	return env.errf(s.Pos, "unsupported assignment target")
}
