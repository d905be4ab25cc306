package algo

import (
	"context"
	"testing"

	"graphit"
)

// TestFigure1BaselineCounters pins the machine-independent counters of the
// loops behind the Figure 1 cost model and set cover at one worker, where
// they are deterministic. The expected values were recorded from the
// implementation that ran these loops on a process-global executor, so a
// change to how the loops execute cannot silently change what they count.
func TestFigure1BaselineCounters(t *testing.T) {
	pins := []struct {
		algo, graph                           string
		rounds, syncs, relaxations, processed int64
	}{
		{"bellmanford", "road", 58, 58, 14520, 3853},
		{"kcore-unordered", "road", 50, 50, 45000, 900},
		{"setcover", "road", 14, 42, 0, 0},
		{"bellmanford", "rmat", 8, 8, 24213, 1495},
		{"kcore-unordered", "rmat", 87, 87, 89088, 1024},
		{"setcover", "rmat", 78, 234, 0, 0},
	}
	gs := symGraphs(t)
	sched := graphit.DefaultSchedule().ConfigNumWorkers(1)
	for _, p := range pins {
		sp, err := Lookup(p.algo)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sp.Run(context.Background(), gs[p.graph], 0, 0, sched)
		if err != nil {
			t.Fatalf("%s/%s: %v", p.algo, p.graph, err)
		}
		st := res.Stats
		if st.Rounds != p.rounds || st.GlobalSyncs != p.syncs || st.Relaxations != p.relaxations || st.Processed != p.processed {
			t.Errorf("%s/%s: rounds=%d syncs=%d relaxations=%d processed=%d, want %d %d %d %d",
				p.algo, p.graph, st.Rounds, st.GlobalSyncs, st.Relaxations, st.Processed,
				p.rounds, p.syncs, p.relaxations, p.processed)
		}
	}
}
