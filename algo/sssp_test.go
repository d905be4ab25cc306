package algo

import (
	"fmt"
	"testing"

	"graphit"
)

// testGraphs returns small deterministic graphs spanning the paper's two
// structural classes: a power-law R-MAT graph and a large-diameter road
// grid.
func testGraphs(t *testing.T) map[string]*graphit.Graph {
	t.Helper()
	rmat, err := graphit.RMAT(graphit.DefaultRMAT(10, 8, 42))
	if err != nil {
		t.Fatalf("RMAT: %v", err)
	}
	road, err := graphit.RoadGrid(graphit.RoadOptions{
		Rows: 40, Cols: 40, DeleteFrac: 0.1, DiagFrac: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatalf("RoadGrid: %v", err)
	}
	return map[string]*graphit.Graph{"rmat": rmat, "road": road}
}

// allSchedules enumerates every (strategy, direction, delta) combination
// that is valid for min-priority algorithms.
func allSchedules() map[string]graphit.Schedule {
	base := graphit.DefaultSchedule()
	return map[string]graphit.Schedule{
		"eager_fusion_d1":   base.ConfigApplyPriorityUpdate("eager_with_fusion"),
		"eager_fusion_d16":  base.ConfigApplyPriorityUpdate("eager_with_fusion").ConfigApplyPriorityUpdateDelta(16),
		"eager_nofuse_d16":  base.ConfigApplyPriorityUpdate("eager_no_fusion").ConfigApplyPriorityUpdateDelta(16),
		"eager_pull_d16":    base.ConfigApplyPriorityUpdate("eager_no_fusion").ConfigApplyPriorityUpdateDelta(16).ConfigApplyDirection("DensePull"),
		"lazy_push_d16":     base.ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(16),
		"lazy_push_d1":      base.ConfigApplyPriorityUpdate("lazy"),
		"lazy_pull_d16":     base.ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(16).ConfigApplyDirection("DensePull"),
		"lazy_smallwindow":  base.ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(4).ConfigNumBuckets(8),
		"eager_smallfusion": base.ConfigApplyPriorityUpdate("eager_with_fusion").ConfigApplyPriorityUpdateDelta(64).ConfigBucketFusionThreshold(4),
		"lazy_hybrid_d16":   base.ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(16).ConfigApplyDirection("DensePull-SparsePush"),
		"lazy_nodedup_d16":  base.ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(16).ConfigDeduplication(false),
	}
}

func TestSSSPMatchesDijkstraAcrossSchedules(t *testing.T) {
	for gname, g := range testGraphs(t) {
		src := graphit.VertexID(1)
		want, err := Dijkstra(g, src)
		if err != nil {
			t.Fatalf("%s: Dijkstra: %v", gname, err)
		}
		for sname, sched := range allSchedules() {
			t.Run(fmt.Sprintf("%s/%s", gname, sname), func(t *testing.T) {
				got, err := SSSP(g, src, sched)
				if err != nil {
					t.Fatalf("SSSP: %v", err)
				}
				diffs := 0
				for v := range want {
					if got.Dist[v] != want[v] {
						diffs++
						if diffs <= 5 {
							t.Errorf("dist[%d] = %d, want %d", v, got.Dist[v], want[v])
						}
					}
				}
				if diffs > 0 {
					t.Fatalf("%d of %d distances differ", diffs, len(want))
				}
				if got.Stats.Rounds == 0 {
					t.Error("expected at least one round")
				}
			})
		}
	}
}

func TestSSSPApproxMatchesDijkstra(t *testing.T) {
	for gname, g := range testGraphs(t) {
		src := graphit.VertexID(1)
		want, err := Dijkstra(g, src)
		if err != nil {
			t.Fatalf("%s: Dijkstra: %v", gname, err)
		}
		got, err := SSSPApprox(g, src, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(8))
		if err != nil {
			t.Fatalf("%s: SSSPApprox: %v", gname, err)
		}
		// Approximate ordering reorders work but runs until no relaxation
		// applies, so final distances are exact.
		for v := range want {
			if got.Dist[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", gname, v, got.Dist[v], want[v])
			}
		}
	}
}

func TestBellmanFordMatchesDijkstra(t *testing.T) {
	for gname, g := range testGraphs(t) {
		src := graphit.VertexID(3)
		want, err := Dijkstra(g, src)
		if err != nil {
			t.Fatalf("%s: Dijkstra: %v", gname, err)
		}
		got, err := BellmanFord(g, src)
		if err != nil {
			t.Fatalf("%s: BellmanFord: %v", gname, err)
		}
		for v := range want {
			if got.Dist[v] != want[v] {
				t.Fatalf("%s: dist[%d] = %d, want %d", gname, v, got.Dist[v], want[v])
			}
		}
	}
}

func TestWBFSForcesUnitDelta(t *testing.T) {
	g := testGraphs(t)["rmat"]
	src := graphit.VertexID(1)
	want, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WBFS(g, src, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(1024))
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if got.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got.Dist[v], want[v])
		}
	}
}

func TestPPSPEarlyTermination(t *testing.T) {
	for gname, g := range testGraphs(t) {
		src, dst := graphit.VertexID(1), graphit.VertexID(uint32(g.NumVertices()-2))
		want, err := Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		full, err := SSSP(g, src, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(16))
		if err != nil {
			t.Fatal(err)
		}
		got, err := PPSP(g, src, dst, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(16))
		if err != nil {
			t.Fatal(err)
		}
		if got.Dist[dst] != want[dst] {
			t.Fatalf("%s: ppsp dist = %d, want %d", gname, got.Dist[dst], want[dst])
		}
		if want[dst] != graphit.Unreached && got.Stats.Rounds > full.Stats.Rounds {
			t.Errorf("%s: early-terminating PPSP used more rounds (%d) than full SSSP (%d)",
				gname, got.Stats.Rounds, full.Stats.Rounds)
		}
	}
}

// TestHybridDirectionSwitches: on a dense social graph, the hybrid
// schedule's big rounds run in the pull direction; results stay exact.
func TestHybridDirectionSwitches(t *testing.T) {
	g := testGraphs(t)["rmat"]
	src := graphit.VertexID(1)
	res, err := SSSP(g, src, graphit.DefaultSchedule().
		ConfigApplyPriorityUpdate("lazy").
		ConfigApplyPriorityUpdateDelta(256).
		ConfigApplyDirection("DensePull-SparsePush"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PullRounds == 0 {
		t.Error("hybrid never pulled on a dense power-law graph")
	}
	if res.Stats.PullRounds >= res.Stats.Rounds {
		t.Error("hybrid never pushed (the first sparse rounds should push)")
	}
	want, err := Dijkstra(g, src)
	if err != nil {
		t.Fatal(err)
	}
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
}

// TestNoDedupStillCorrectButInsertsMore: disabling deduplication keeps
// results exact (extraction-time dedup) while performing at least as many
// bucket insertions. Both runs use one worker: insertion counts of
// parallel runs depend on the interleaving, so only same-order runs are
// comparable.
func TestNoDedupStillCorrectButInsertsMore(t *testing.T) {
	g := testGraphs(t)["rmat"]
	src := graphit.VertexID(1)
	base := graphit.DefaultSchedule().ConfigApplyPriorityUpdate("lazy").ConfigApplyPriorityUpdateDelta(64).ConfigNumWorkers(1)
	with, err := SSSP(g, src, base)
	if err != nil {
		t.Fatal(err)
	}
	without, err := SSSP(g, src, base.ConfigDeduplication(false))
	if err != nil {
		t.Fatal(err)
	}
	for v := range with.Dist {
		if with.Dist[v] != without.Dist[v] {
			t.Fatalf("dist[%d] differs: %d vs %d", v, with.Dist[v], without.Dist[v])
		}
	}
	if without.Stats.BucketInserts < with.Stats.BucketInserts {
		t.Errorf("no-dedup inserts %d < dedup inserts %d", without.Stats.BucketInserts, with.Stats.BucketInserts)
	}
}

// TestEagerRejectsHybrid: hybrid direction is a lazy-engine feature.
func TestEagerRejectsHybrid(t *testing.T) {
	g := testGraphs(t)["rmat"]
	_, err := SSSP(g, 0, graphit.DefaultSchedule().ConfigApplyDirection("DensePull-SparsePush"))
	if err == nil {
		t.Fatal("eager + hybrid accepted")
	}
}
