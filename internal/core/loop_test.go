package core

import (
	"context"
	"errors"
	"testing"
)

// TestRunLoopNoProgress: a loop that repeats the same bucket and frontier
// without doing any work trips the StuckRounds detector, which is terminal
// even under retry_serial.
func TestRunLoopNoProgress(t *testing.T) {
	cfg := Config{StuckRounds: 5, OnFault: FaultRetrySerial}
	starts := 0
	st, err := RunLoop(context.Background(), cfg, RunInfo{}, func(int) Loop {
		starts++
		return Loop{
			Next: func() bool { return true },
			Round: func(r *Round) {
				r.Bucket, r.Frontier = 3, 10
				r.ForChunks(r.Frontier, func(lo, hi, worker int) {})
			},
		}
	})
	var se *StuckError
	if !errors.As(err, &se) || se.Reason != StuckNoProgress {
		t.Fatalf("err = %v, want a no-progress StuckError", err)
	}
	// The first round has nothing to repeat, so K stalled rounds end at K+1.
	if st.Rounds != 6 || se.Round != 6 || starts != 1 {
		t.Errorf("stopped at round %d (error round %d) after %d starts, want round 6 and one start", st.Rounds, se.Round, starts)
	}
}
