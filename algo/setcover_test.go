package algo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"graphit"
)

func TestSetCoverCoversUniverse(t *testing.T) {
	for gname, g := range symGraphs(t) {
		for _, nb := range []int{128, 8} {
			t.Run(fmt.Sprintf("%s/window%d", gname, nb), func(t *testing.T) {
				res, err := SetCover(g, graphit.DefaultSchedule().ConfigNumBuckets(nb))
				if err != nil {
					t.Fatal(err)
				}
				n := g.NumVertices()
				// Validity: every element is covered, and covered by a set
				// that actually contains it and is in the cover.
				for e := 0; e < n; e++ {
					s := res.CoveredBy[e]
					if s < 0 {
						t.Fatalf("element %d uncovered", e)
					}
					if !res.Chosen[s] {
						t.Fatalf("element %d covered by unchosen set %d", e, s)
					}
					if !setContains(g, uint32(s), uint32(e)) {
						t.Fatalf("set %d does not contain element %d", s, e)
					}
				}
				if res.NumChosen == 0 || res.NumChosen > n {
					t.Fatalf("implausible cover size %d", res.NumChosen)
				}
			})
		}
	}
}

// setContains reports whether set s covers element e (s == e or e ∈ N(s)).
func setContains(g *graphit.Graph, s, e uint32) bool {
	if s == e {
		return true
	}
	for _, u := range g.OutNeigh(s) {
		if u == e {
			return true
		}
	}
	return false
}

func TestSetCoverNearGreedyQuality(t *testing.T) {
	for gname, g := range symGraphs(t) {
		res, err := SetCover(g, graphit.DefaultSchedule())
		if err != nil {
			t.Fatal(err)
		}
		_, greedy, err := GreedySetCover(g)
		if err != nil {
			t.Fatal(err)
		}
		// The bucketed nearly-independent algorithm commits sets covering
		// at least half the bucket's value, so its cost should stay within
		// a small constant factor of sequential greedy.
		if res.NumChosen > 4*greedy {
			t.Errorf("%s: parallel cover %d sets vs greedy %d (> 4x)", gname, res.NumChosen, greedy)
		}
		t.Logf("%s: parallel=%d greedy=%d rounds=%d", gname, res.NumChosen, greedy, res.Stats.Rounds)
	}
}

func TestGreedySetCoverIsValid(t *testing.T) {
	g := symGraphs(t)["rmat"]
	chosen, num, err := GreedySetCover(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	covered := make([]bool, n)
	cnt := 0
	for s := 0; s < n; s++ {
		if !chosen[s] {
			continue
		}
		cnt++
		if !covered[s] {
			covered[s] = true
		}
		for _, e := range g.OutNeigh(uint32(s)) {
			covered[e] = true
		}
	}
	if cnt != num {
		t.Fatalf("reported %d chosen, counted %d", num, cnt)
	}
	for e := 0; e < n; e++ {
		if !covered[e] {
			t.Fatalf("greedy left element %d uncovered", e)
		}
	}
}

func TestSetCoverRejectsCoarseningAndDirected(t *testing.T) {
	g := symGraphs(t)["rmat"]
	if _, err := SetCover(g, graphit.DefaultSchedule().ConfigApplyPriorityUpdateDelta(2)); err == nil {
		t.Error("expected error for set cover with ∆ > 1")
	}
	dg, err := graphit.RMAT(graphit.DefaultRMAT(6, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SetCover(dg, graphit.DefaultSchedule()); err == nil {
		t.Error("expected error for set cover on a directed graph")
	}
}

func setCosts(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]int64, n)
	for i := range costs {
		costs[i] = int64(1 + rng.Intn(20))
	}
	return costs
}

func TestWeightedSetCoverCoversUniverse(t *testing.T) {
	for gname, g := range symGraphs(t) {
		n := g.NumVertices()
		costs := setCosts(n, 77)
		res, err := WeightedSetCover(g, costs, graphit.DefaultSchedule())
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		for e := 0; e < n; e++ {
			s := res.CoveredBy[e]
			if s < 0 {
				t.Fatalf("%s: element %d uncovered", gname, e)
			}
			if !res.Chosen[s] || !setContains(g, uint32(s), uint32(e)) {
				t.Fatalf("%s: element %d covered invalidly by %d", gname, e, s)
			}
		}
	}
}

func TestWeightedSetCoverNearGreedyCost(t *testing.T) {
	g := symGraphs(t)["rmat"]
	costs := setCosts(g.NumVertices(), 13)
	res, err := WeightedSetCover(g, costs, graphit.DefaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	_, greedyCost, err := GreedyWeightedSetCover(g, costs)
	if err != nil {
		t.Fatal(err)
	}
	parCost := CoverCost(res, costs)
	if parCost > 4*greedyCost {
		t.Errorf("parallel cost %d vs greedy %d (> 4x)", parCost, greedyCost)
	}
	t.Logf("parallel cost %d, greedy cost %d, rounds %d", parCost, greedyCost, res.Stats.Rounds)
}

func TestWeightedSetCoverUnitCostsMatchUnweightedShape(t *testing.T) {
	// All-ones costs scale every priority by the fixed-point precision, which
	// preserves the bucket order and every commit decision, so the weighted
	// path must pick exactly the unweighted cover in the same rounds.
	for gname, g := range symGraphs(t) {
		unit := make([]int64, g.NumVertices())
		for i := range unit {
			unit[i] = 1
		}
		for _, nb := range []int{0, 4, 128} {
			sched := graphit.DefaultSchedule().ConfigNumWorkers(1)
			if nb > 0 {
				sched = sched.ConfigNumBuckets(nb)
			}
			w, err := WeightedSetCover(g, unit, sched)
			if err != nil {
				t.Fatal(err)
			}
			u, err := SetCover(g, sched)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(w.Chosen, u.Chosen) || w.Stats.Rounds != u.Stats.Rounds {
				t.Errorf("%s/buckets=%d: unit-cost cover %d sets in %d rounds, unweighted %d sets in %d rounds",
					gname, nb, w.NumChosen, w.Stats.Rounds, u.NumChosen, u.Stats.Rounds)
			}
		}
	}
}

func TestWeightedSetCoverPrefersCheapSets(t *testing.T) {
	// A star graph: hub 0 covers everything; leaves cover only themselves
	// and the hub. With a cheap hub, the cover should be just the hub; with
	// an exorbitant hub, the leaves win.
	var edges []graphit.Edge
	const n = 50
	for v := graphit.VertexID(1); v < n; v++ {
		edges = append(edges, graphit.Edge{Src: 0, Dst: v, W: 1})
	}
	g, err := graphit.BuildGraph(edges, graphit.BuildOptions{Symmetrize: true, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	cheapHub := make([]int64, n)
	for i := range cheapHub {
		cheapHub[i] = 100
	}
	cheapHub[0] = 1
	res, err := WeightedSetCover(g, cheapHub, graphit.DefaultSchedule())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Chosen[0] {
		t.Error("cheap hub not chosen")
	}
	if CoverCost(res, cheapHub) > 101 {
		t.Errorf("cover cost %d; the cheap hub alone costs 1", CoverCost(res, cheapHub))
	}
}

func TestWeightedSetCoverRejectsBadInput(t *testing.T) {
	g := symGraphs(t)["rmat"]
	if _, err := WeightedSetCover(g, make([]int64, 3), graphit.DefaultSchedule()); err == nil {
		t.Error("wrong cost length accepted")
	}
	costs := setCosts(g.NumVertices(), 1)
	costs[5] = 0
	if _, err := WeightedSetCover(g, costs, graphit.DefaultSchedule()); err == nil {
		t.Error("zero cost accepted")
	}
}
