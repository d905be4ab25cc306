package algo_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
	"graphit/internal/core"
	"graphit/internal/faults"
)

// loopAlgos are the registry entries that run on core.RunLoop rather than
// the ordered engine; they must honour the same schedule envelope.
var loopAlgos = []string{"setcover", "bellmanford", "kcore-unordered"}

func TestLoopAlgorithmsHonourWorkers(t *testing.T) {
	g := faultGraph(t)
	for _, name := range loopAlgos {
		sp, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			var mu sync.Mutex
			workers := map[int]int{}
			ctx := core.WithFaultHook(context.Background(), func(phase string, _ int64, worker int) {
				if phase == core.PhaseRelaxChunk {
					mu.Lock()
					workers[worker]++
					mu.Unlock()
				}
			})
			if _, err := sp.Run(ctx, g, 0, 0, graphit.DefaultSchedule().ConfigNumWorkers(w)); err != nil {
				t.Fatalf("%s/workers=%d: %v", name, w, err)
			}
			if len(workers) == 0 {
				t.Fatalf("%s/workers=%d: fault hook never saw a chunk", name, w)
			}
			for id := range workers {
				if id < 0 || id >= w {
					t.Errorf("%s/workers=%d: chunk ran on worker %d", name, w, id)
				}
			}
		}
	}
}

func TestLoopAlgorithmsContainPanics(t *testing.T) {
	g := faultGraph(t)
	for _, name := range loopAlgos {
		sp, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		in := faults.New(faults.PanicAt(core.PhaseRelax, 2, "bad round"))
		res, err := sp.Run(in.Context(context.Background()), g, 0, 0, graphit.DefaultSchedule())
		var pe *graphit.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: err = %v, want a *graphit.PanicError", name, err)
		}
		if pe.Phase != core.PhaseRelax || pe.Round != 2 || pe.Value != "bad round" {
			t.Errorf("%s: PanicError = phase %q round %d value %v", name, pe.Phase, pe.Round, pe.Value)
		}
		if res == nil || res.Stats.Rounds != 2 {
			t.Errorf("%s: partial result %+v, want 2 rounds", name, res)
		}
	}
}

// TestLoopAlgorithmsRetrySerial: under retry_serial a faulted loop restarts
// from its initial state on one worker and still answers exactly as an
// unfaulted run; a fault during the restart is terminal.
func TestLoopAlgorithmsRetrySerial(t *testing.T) {
	g := faultGraph(t)
	sched := graphit.DefaultSchedule().ConfigNumWorkers(2).ConfigOnFault("retry_serial")
	for _, name := range loopAlgos {
		sp, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sp.Run(context.Background(), g, 0, 0, graphit.DefaultSchedule().ConfigNumWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		in := faults.New(faults.Trigger{Phase: core.PhaseRelaxChunk, Round: 1, Repeat: true, PanicValue: "flaky"})
		got, err := sp.Run(in.Context(context.Background()), g, 0, 0, sched)
		if err != nil {
			t.Fatalf("%s: retry did not absorb the fault: %v", name, err)
		}
		if got.Stats.Retries != 1 || !reflect.DeepEqual(got.Values, want.Values) || got.NumChosen != want.NumChosen {
			t.Errorf("%s: retried result (retries=%d chosen=%d) differs from the serial run (chosen=%d)",
				name, got.Stats.Retries, got.NumChosen, want.NumChosen)
		}

		in = faults.New(faults.PanicAt(core.RetryPrefix+core.PhaseRelax, 1, "still broken"),
			faults.PanicAt(core.PhaseRelax, 1, "broken"))
		_, err = sp.Run(in.Context(context.Background()), g, 0, 0, sched)
		var pe *graphit.PanicError
		if !errors.As(err, &pe) || pe.Phase != core.RetryPrefix+core.PhaseRelax {
			t.Errorf("%s: fault in the restart returned %v, want a retry.relax PanicError", name, err)
		}
	}
}

func TestLoopAlgorithmsRoundTimeout(t *testing.T) {
	g := faultGraph(t)
	sched := graphit.DefaultSchedule().ConfigRoundTimeout(50 * time.Millisecond)
	for _, name := range loopAlgos {
		sp, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		in := faults.New(faults.DelayAt(core.PhaseRelax, 2, 400*time.Millisecond))
		res, err := sp.Run(in.Context(context.Background()), g, 0, 0, sched)
		var se *graphit.StuckError
		if !errors.As(err, &se) || se.Reason != core.StuckRoundTimeout || se.Round != 2 {
			t.Fatalf("%s: err = %v, want a round_timeout StuckError at round 2", name, err)
		}
		if res == nil || len(se.Recent) != 1 {
			t.Errorf("%s: partial result %v, recent rounds %d", name, res, len(se.Recent))
		}
	}
}

func TestLoopAlgorithmsCancelAtBarrier(t *testing.T) {
	g := faultGraph(t)
	for _, name := range loopAlgos {
		sp, err := algo.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		in := faults.New(faults.CancelAt(core.PhaseRelax, 2, cancel))
		tr := &graphit.MemTracer{}
		res, err := sp.Run(graphit.WithTracer(in.Context(ctx), tr), g, 0, 0, graphit.DefaultSchedule())
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if res == nil || res.Stats.Rounds != 2 {
			t.Errorf("%s: partial result %+v, want 2 rounds", name, res)
		}
		if len(tr.Events) != 2 || !errors.Is(tr.Err, context.Canceled) || tr.Final.Rounds != 2 {
			t.Errorf("%s: trace has %d rounds, final %+v, err %v", name, len(tr.Events), tr.Final, tr.Err)
		}
	}
}
