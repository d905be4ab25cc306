package codegen

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"graphit/internal/core"
	"graphit/internal/faults"
)

// peelProgram is a minimal extern-driven loop: vertices are dequeued by
// out-degree, highest first, visited once, and removed by the reduce
// extern.
const peelProgram = `
element Vertex end
element Edge end
const edges : edgeset{Edge}(Vertex, Vertex) = load(argv[1]);
const deg : vector{Vertex}(int) = 0;
const pq : priority_queue{Vertex}(int);
extern func visit(v : Vertex);
extern func retire(v : Vertex) : int;
func main()
    deg = edges.getOutDegrees();
    pq = new priority_queue{Vertex}(int)(false, "higher_first", deg);
    while (pq.finished() == false)
        var bucket : vertexset{Vertex} = pq.dequeueReadySet();
        bucket.applyExtern(visit);
        bucket.applyExternReduce(retire);
        delete bucket;
    end
end
`

func runPeel(t *testing.T, ctx context.Context) (*ExecResult, int64, error) {
	t.Helper()
	plan, err := Compile(peelProgram)
	if err != nil {
		t.Fatal(err)
	}
	var visits atomic.Int64
	res, err := plan.execute(ctx, ExecOptions{
		Graph: planSymGraph(t),
		Argv:  []string{"peel", "-"},
		Externs: map[string]ExternFunc{
			"visit":  func(...int64) int64 { visits.Add(1); return 0 },
			"retire": func(...int64) int64 { return core.NullMax },
		},
	})
	return res, visits.Load(), err
}

// TestExternLoopRunsOnRunExecutor: the extern loop runs on the run's own
// executor, sized from the schedule (GOMAXPROCS for DSL plans), and its
// chunks are fault checkpoints.
func TestExternLoopRunsOnRunExecutor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var mu sync.Mutex
	workers := map[int]int{}
	ctx := core.WithFaultHook(context.Background(), func(phase string, _ int64, worker int) {
		if phase == core.PhaseRelaxChunk {
			mu.Lock()
			workers[worker]++
			mu.Unlock()
		}
	})
	res, visits, err := runPeel(t, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := planSymGraph(t).NumVertices(); visits != int64(n) || res.Stats.Processed != int64(n) {
		t.Errorf("visited %d, processed %d, want %d", visits, res.Stats.Processed, n)
	}
	if len(workers) != 1 || workers[0] == 0 {
		t.Errorf("chunks ran on workers %v, want only worker 0", workers)
	}
}

func TestExternLoopContainsPanics(t *testing.T) {
	in := faults.New(faults.PanicAt(core.PhaseRelax, 2, "bad extern"))
	_, _, err := runPeel(t, in.Context(context.Background()))
	var pe *core.PanicError
	if !errors.As(err, &pe) || pe.Phase != core.PhaseRelax || pe.Round != 2 {
		t.Fatalf("err = %v, want a relax PanicError at round 2", err)
	}
}
