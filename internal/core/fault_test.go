package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"graphit/internal/bucket"
	"graphit/internal/parallel"
	"graphit/internal/testutil"
)

func TestFaultPolicyParsing(t *testing.T) {
	for _, p := range []FaultPolicy{FaultFail, FaultRetrySerial} {
		got, err := ParseFaultPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: %v, %v", p, got, err)
		}
	}
	if _, err := ParseFaultPolicy("bogus"); err == nil {
		t.Error("expected error for bogus policy")
	}
}

func TestValidateRejectsEagerFinalizeRetry(t *testing.T) {
	g := lineGraph(t, 4)
	op, _ := ssspOp(g, 0, DefaultConfig())
	op.FinalizeOnPop = true
	op.Cfg.OnFault = FaultRetrySerial
	if _, err := op.Run(); err == nil || !strings.Contains(err.Error(), "retry_serial") {
		t.Fatalf("expected retry_serial rejection, got %v", err)
	}
	// The lazy strategies finalize the frontier up front, so the same policy
	// is accepted there.
	op2, _ := ssspOp(g, 0, DefaultConfig())
	op2.FinalizeOnPop = true
	op2.Cfg.Strategy = Lazy
	op2.Cfg.OnFault = FaultRetrySerial
	if _, err := op2.Run(); err != nil {
		t.Fatalf("lazy finalize-on-pop with retry_serial should run: %v", err)
	}
}

// stuckSrc hands out the same bucket forever — the defective bucketSource
// the no-progress detector exists to diagnose.
type stuckSrc struct {
	bid      int64
	frontier []uint32
}

func (s *stuckSrc) next() (int64, []uint32) { return s.bid, s.frontier }
func (s *stuckSrc) update(ids []uint32)     {}
func (s *stuckSrc) finish(st *Stats)        {}

// inertTrav relaxes nothing and never aborts.
type inertTrav struct{}

func (inertTrav) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	return nil, false, false
}

func TestStuckNoProgressDetector(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	o := &Ordered{Cfg: Config{Delta: 1, StuckRounds: 3}}
	e := &engine{
		o:    o,
		src:  &stuckSrc{bid: 7, frontier: []uint32{1, 2, 3}},
		trav: inertTrav{},
		ups:  []*Updater{{o: o}},
		ctl:  &runCtl{},
	}
	var st Stats
	fault, err := e.run(context.Background(), NopTracer{}, &st)
	if fault != nil {
		t.Fatalf("no-progress abort must be terminal, got retryable fault %v", fault)
	}
	var se *StuckError
	if !errors.As(err, &se) {
		t.Fatalf("expected *StuckError, got %v", err)
	}
	if se.Reason != StuckNoProgress {
		t.Fatalf("Reason = %q, want %q", se.Reason, StuckNoProgress)
	}
	if se.Bucket != 7 || se.Frontier != 3 {
		t.Fatalf("StuckError context wrong: %+v", se)
	}
	// Round 1 establishes the bucket; rounds 2-4 are the three zero-progress
	// repetitions that trip StuckRounds=3.
	if st.Rounds != 4 {
		t.Fatalf("detector fired after %d rounds, want 4", st.Rounds)
	}
	if len(se.Recent) == 0 {
		t.Fatal("StuckError.Recent empty")
	}
}

func TestWatchdogAbortsLongRound(t *testing.T) {
	ctl := &runCtl{}
	ctl.beginRound(1)
	stop := ctl.startWatchdog(context.Background(), 10*time.Millisecond)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for ctl.aborted() != abortTimeout {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never aborted an over-long round")
		}
		time.Sleep(time.Millisecond)
	}
	// The same round must not be aborted twice after a reset…
	start := ctl.roundStart.Load()
	ctl.reset()
	ctl.round.Store(1)
	ctl.roundStart.Store(start) // same round identity
	time.Sleep(30 * time.Millisecond)
	if ctl.aborted() != abortNone {
		t.Fatal("watchdog re-aborted the round it already aborted")
	}
	// …but a new round is timed afresh.
	ctl.beginRound(2)
	for ctl.aborted() != abortTimeout {
		if time.Now().After(deadline) {
			t.Fatal("watchdog ignored the next round")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWatchdogConvertsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ctl := &runCtl{}
	stop := ctl.startWatchdog(ctx, time.Hour)
	defer stop()
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for ctl.aborted() != abortCancel {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never propagated the cancellation")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManualPoisoned verifies the step-wise mode's containment: a panicking
// EdgeFunc returns a *PanicError, and the queue refuses later rounds with
// the same error while staying queryable.
func TestManualPoisoned(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := lineGraph(t, 16)
	cfg := DefaultConfig()
	cfg.Strategy = Lazy
	op, _ := ssspOp(g, 0, cfg)
	m, err := NewManual(op)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// First round applies cleanly.
	if err := m.ApplyUpdatePriority(m.DequeueReadySet(), nil); err != nil {
		t.Fatal(err)
	}
	boom := func(s, d uint32, w int32, u *Updater) { panic("user fault") }
	err = m.ApplyUpdatePriority(m.DequeueReadySet(), boom)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *PanicError, got %v", err)
	}
	if pe.Value != "user fault" || pe.Phase != PhaseRelax {
		t.Fatalf("unexpected PanicError: %+v", pe)
	}
	// Poisoned: the same error comes back, and Err exposes it.
	if err2 := m.ApplyUpdatePriority(m.DequeueReadySet(), nil); err2 != err {
		t.Fatalf("poisoned queue returned %v, want the original fault", err2)
	}
	if m.Err() != err {
		t.Fatalf("Err() = %v", m.Err())
	}
	// Queries stay valid.
	if m.Stats().Rounds < 2 {
		t.Fatalf("Stats lost: %+v", m.Stats())
	}
}

// TestPanicErrorRoundInFirstRound pins the Round numbering: a fault in the
// very first next_bucket extraction reports round 1.
func TestPanicErrorPhases(t *testing.T) {
	defer testutil.LeakCheck(t, parallel.CloseIdle)()
	g := lineGraph(t, 32)
	for _, phase := range []string{PhaseNext, PhaseUpdate} {
		cfg := DefaultConfig()
		cfg.Strategy = Lazy
		op, _ := ssspOp(g, 0, cfg)
		hooked := WithFaultHook(context.Background(), func(p string, round int64, worker int) {
			if p == phase && round == 1 {
				panic("early fault")
			}
		})
		_, err := op.RunContext(hooked)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: expected *PanicError, got %v", phase, err)
		}
		if pe.Phase != phase || pe.Round != 1 {
			t.Fatalf("%s: got phase %q round %d", phase, pe.Phase, pe.Round)
		}
	}
}

// TestStuckErrorMessage keeps the diagnostic strings stable enough to grep.
func TestFaultErrorMessages(t *testing.T) {
	pe := &PanicError{Phase: PhaseRelax, Round: 4, Value: "boom"}
	if msg := pe.Error(); !strings.Contains(msg, "relax") || !strings.Contains(msg, "round 4") {
		t.Errorf("PanicError message %q", msg)
	}
	se := &StuckError{Reason: StuckRoundTimeout, Round: 9, Bucket: 2, Priority: 2, Frontier: 11, Elapsed: time.Second}
	if msg := se.Error(); !strings.Contains(msg, StuckRoundTimeout) || !strings.Contains(msg, "round 9") {
		t.Errorf("StuckError message %q", msg)
	}
	if bucket.NullBkt == 0 {
		t.Fatal("sentinel changed") // guards the stuckSrc test's bucket ids
	}
}
