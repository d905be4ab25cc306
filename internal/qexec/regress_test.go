package qexec

// Regression tests for pipeline bugfixes: a panicking coalesced leader
// poisoning its flight key, execute() leaking a child context, admission
// racing a drain close against a freed slot, and a cached outcome pinning
// the engine's result vector.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphit"
	"graphit/algo"
)

// TestFlightLeaderPanicRecovers proves the coalescer survives a leader
// whose run func panics: waiting followers get a fault outcome instead of
// hanging, the key is unpublished (later callers run a fresh flight), and
// the panic still propagates to the leader's caller.
func TestFlightLeaderPanicRecovers(t *testing.T) {
	g := newFlightGroup()
	const key = "k"

	entered := make(chan struct{})
	release := make(chan struct{})
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		g.do(context.Background(), key, func() *Outcome {
			close(entered)
			<-release
			panic("boom in run")
		})
	}()
	<-entered

	// Followers join while the leader is mid-run.
	const followers = 3
	outs := make(chan *Outcome, followers)
	var started sync.WaitGroup
	started.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			started.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			outs <- g.do(ctx, key, func() *Outcome {
				t.Error("follower unexpectedly became a leader")
				return &Outcome{}
			})
		}()
	}
	started.Wait()
	waitFor(t, "followers to join the flight", func() bool {
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.coalesced == followers
	})
	close(release)

	if r := <-leaderPanicked; r == nil {
		t.Fatalf("leader's panic did not propagate")
	}
	for i := 0; i < followers; i++ {
		out := <-outs
		if out.Code != CodeFault || !errors.Is(out.Err, ErrFlightAbandoned) {
			t.Errorf("follower got (%v, %v), want (CodeFault, ErrFlightAbandoned)", out.Code, out.Err)
		}
		if !out.Coalesced {
			t.Errorf("follower outcome not marked Coalesced")
		}
	}

	// The key must not stay poisoned: a later identical request starts a
	// fresh flight and completes normally.
	done := make(chan *Outcome, 1)
	go func() {
		done <- g.do(context.Background(), key, func() *Outcome { return &Outcome{Code: CodeOK} })
	}()
	select {
	case out := <-done:
		if out.Code != CodeOK || out.Coalesced {
			t.Fatalf("post-panic flight got %+v, want a fresh CodeOK leader run", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("post-panic request hung: flight key still poisoned")
	}
}

// TestExecuteContextPerPath pins the restructured deadline wiring: both the
// attached and the detached (coalesced-leader) paths hand the engine a
// context carrying the budget deadline, and that context is cancelled once
// execute returns — the shape whose earlier form leaked an extra WithCancel
// child on the attached path (caught by go vet's lostcancel class only
// after the restructure made each path create exactly one child).
func TestExecuteContextPerPath(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		var mu sync.Mutex
		var seen []context.Context
		p := newTestPipeline(t, Config{
			Coalesce: coalesce,
			BaseContext: func(ctx context.Context) context.Context {
				mu.Lock()
				seen = append(seen, ctx)
				mu.Unlock()
				return ctx
			},
		})
		out := p.Do(context.Background(), Request{Algo: "sssp", Graph: "road", Src: 0, BudgetMS: 30_000})
		if out.Code != CodeOK {
			t.Fatalf("coalesce=%v: query failed: %+v", coalesce, out)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(seen) != 1 {
			t.Fatalf("coalesce=%v: BaseContext saw %d contexts, want 1", coalesce, len(seen))
		}
		if _, ok := seen[0].Deadline(); !ok {
			t.Errorf("coalesce=%v: run context carries no budget deadline", coalesce)
		}
		if err := seen[0].Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("coalesce=%v: run context not cancelled after execute returned (err=%v)", coalesce, err)
		}
	}
}

// TestAdmissionDrainQueuedRace: a queued waiter races close() against a
// slot freed during the drain. Before the fix, the select between the
// freed slot and the closed channel chose randomly, admitting the waiter
// mid-drain about half the time; the post-grab re-check makes ErrDraining
// deterministic.
func TestAdmissionDrainQueuedRace(t *testing.T) {
	for i := 0; i < 300; i++ {
		a := newAdmission(1, 1)
		release, err := a.acquire(context.Background())
		if err != nil {
			t.Fatalf("setup acquire: %v", err)
		}
		got := make(chan error, 1)
		go func() {
			_, err := a.acquire(context.Background())
			got <- err
		}()
		waitFor(t, "waiter to queue", func() bool { return a.queued.Load() == 1 })
		a.close()
		release() // a slot frees while draining — must not admit the waiter
		if err := <-got; !errors.Is(err, ErrDraining) {
			t.Fatalf("iter %d: queued waiter got %v after close, want ErrDraining", i, err)
		}
	}
}

// TestAdmitSlotRechecksClosed exercises the fast-path window directly: the
// entry closeFlag load has passed, close() lands, a slot frees, and the
// select grabs it. admitSlot (the code after the grab) must bounce the
// request and return the slot.
func TestAdmitSlotRechecksClosed(t *testing.T) {
	a := newAdmission(1, 1)
	a.close()
	// A slot is free and grabbed exactly as in acquire's fast path.
	<-a.slots
	rel, err := a.admitSlot()
	if !errors.Is(err, ErrDraining) || rel != nil {
		t.Fatalf("admitSlot after close: got (release=%t, %v), want (nil, ErrDraining)", rel != nil, err)
	}
	if len(a.slots) != 1 {
		t.Fatalf("admitSlot did not return the grabbed slot (free=%d)", len(a.slots))
	}
	if got := a.admitted.Load(); got != 0 {
		t.Fatalf("admitSlot counted an admission during drain (admitted=%d)", got)
	}
}

// TestAdmissionDrainStress hammers acquire/release against a concurrent
// close under -race: every path through the re-check must stay race-clean,
// slot accounting must balance (the draining bounce returns the grabbed
// slot), and once everyone has drained no acquire may succeed. The
// deterministic admit-after-close assertions live in the two tests above;
// this one covers the interleavings they pin down, at volume.
func TestAdmissionDrainStress(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		a := newAdmission(2, 4)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					rel, err := a.acquire(context.Background())
					if err == nil {
						rel()
					}
					if errors.Is(err, ErrDraining) {
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			a.close()
		}()
		close(start)
		wg.Wait()
		if free := len(a.slots); free != 2 {
			t.Fatalf("iter %d: slot accounting broken: %d free, want 2", iter, free)
		}
		if _, err := a.acquire(context.Background()); !errors.Is(err, ErrDraining) {
			t.Fatalf("iter %d: acquire after drain: %v, want ErrDraining", iter, err)
		}
	}
}

// TestCachedOutcomeDoesNotPinResultVector: a cached answer holds its summary
// and a copy of the run's Stats, never a pointer into the engine's result,
// so the result vector is collectable while the entry stays cached — on
// the single-source path and on the batched multi-source path. (Pointing
// Outcome.Stats into the QueryResult kept every cached answer's whole
// distance vector alive.)
func TestCachedOutcomeDoesNotPinResultVector(t *testing.T) {
	p := newTestPipeline(t, Config{CacheEntries: 16})
	sp, err := algo.Lookup("sssp")
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{}, 3) // one per tracked result vector
	track := func(res *algo.QueryResult) {
		runtime.SetFinalizer(&res.Values[0], func(*int64) { freed <- struct{}{} })
	}
	traced := *sp
	traced.Run = func(ctx context.Context, g *graphit.Graph, src, dst graphit.VertexID, sched graphit.Schedule) (*algo.QueryResult, error) {
		res, err := sp.Run(ctx, g, src, dst, sched)
		if err == nil {
			track(res)
		}
		return res, err
	}
	traced.RunMulti = func(ctx context.Context, g *graphit.Graph, srcs, dsts []graphit.VertexID, sched graphit.Schedule) ([]*algo.QueryResult, error) {
		res, err := sp.RunMulti(ctx, g, srcs, dsts, sched)
		if err == nil {
			for _, r := range res {
				track(r)
			}
		}
		return res, err
	}
	plan := func(src uint32) *Plan {
		pl, err := p.plan(&Request{Algo: "sssp", Graph: "road", Src: src, Strategy: "lazy"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pl.Snap.Release)
		pl.Spec = &traced
		return pl
	}
	awaitFreed := func(what string, n int) {
		t.Helper()
		for i := 0; n > 0 && i < 100; i++ {
			runtime.GC()
			select {
			case <-freed:
				n--
			case <-time.After(10 * time.Millisecond):
			}
		}
		if n > 0 {
			t.Fatalf("%s: %d result vectors still reachable after GC", what, n)
		}
	}

	single := plan(3)
	if out := p.execute(context.Background(), single, false, &execTrace{}); out.Code != CodeOK || out.Stats == nil {
		t.Fatalf("single run: code %v stats %v err %v", out.Code, out.Stats, out.Err)
	}
	awaitFreed("single-source run", 1)

	lanes := []*batchLane{{pl: plan(5)}, {pl: plan(9)}}
	for _, out := range p.executeBatch(context.Background(), lanes, &execTrace{}) {
		if out.Code != CodeOK || out.Stats == nil {
			t.Fatalf("batched run: code %v stats %v err %v", out.Code, out.Stats, out.Err)
		}
	}
	awaitFreed("batched run", 2)

	for _, pl := range []*Plan{single, lanes[0].pl, lanes[1].pl} {
		out, ok := p.cached(pl)
		if !ok {
			t.Fatalf("src %d: answer not cached", pl.Src)
		}
		if out.Stats == nil || out.Stats.Relaxations == 0 {
			t.Fatalf("src %d: cached stats %+v", pl.Src, out.Stats)
		}
	}
}
