package algo

import (
	"context"
	"fmt"
	"math"

	"graphit"
	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/core"
)

// SetCoverResult carries the output of approximate set cover.
type SetCoverResult struct {
	// Chosen[v] reports whether set v is in the cover.
	Chosen []bool
	// CoveredBy[e] is the set that covers element e.
	CoveredBy []int64
	// NumChosen is the number of sets in the cover (its cost under unit
	// costs, paper §6.1; see CoverCost for weighted covers).
	NumChosen int
	Stats     graphit.Stats
}

// ratioPrec is the fixed-point precision of cost-per-element priorities in
// WeightedSetCover: priority = uncovered × ratioPrec / cost. Unit costs
// use precision 1, so SetCover buckets sets by their exact coverage.
const ratioPrec = 64

// SetCover computes an approximate minimum set cover on a symmetric graph,
// in the vertex-domination form the paper's frameworks evaluate: every
// vertex is both an element and a set that covers itself and its neighbors.
//
// The algorithm is the bucketed, nearly-independent greedy of Blelloch et
// al. as implemented in Julienne (paper §6.1): sets are bucketed by their
// number of uncovered elements and processed from the highest bucket
// (higher_first order). Each round, the ready sets race to reserve their
// uncovered elements with an atomic write-min of their id; a set that
// reserves at least half of the current bucket's value commits (joins the
// cover), while the rest release their reservations and are re-bucketed by
// their recomputed coverage — the lazy bucket update approach, since each
// set moves buckets at most once per round.
//
// Like k-core, set cover tolerates no priority coarsening; the schedule's
// ∆ must be 1. The schedule's NumBuckets, Grain, Workers and fault options
// apply.
func SetCover(g *graphit.Graph, sched graphit.Schedule) (*SetCoverResult, error) {
	return WeightedSetCoverContext(context.Background(), g, nil, sched)
}

// SetCoverContext is SetCover under a context: cancellation is checked at
// every round barrier and returns the partial (possibly incomplete) cover
// together with ctx.Err().
func SetCoverContext(ctx context.Context, g *graphit.Graph, sched graphit.Schedule) (*SetCoverResult, error) {
	return WeightedSetCoverContext(ctx, g, nil, sched)
}

// WeightedSetCover generalizes SetCover to per-set costs, the extension the
// paper notes the algorithm supports (§6.1: "the algorithm used easily
// generalizes to the weighted case"). Sets are bucketed by their
// *cost-effectiveness* — the number of still-uncovered elements they cover
// per unit cost, in fixed-point — and processed from the most effective
// bucket, with the same reservation/commit rounds as the unweighted
// version.
//
// costs[v] is the cost of set v and must be positive; nil costs are unit
// costs, which is SetCover. The schedule's ∆ must be 1 (no coarsening).
func WeightedSetCover(g *graphit.Graph, costs []int64, sched graphit.Schedule) (*SetCoverResult, error) {
	return WeightedSetCoverContext(context.Background(), g, costs, sched)
}

// WeightedSetCoverContext is WeightedSetCover under a context: the rounds
// run on the schedule's worker count inside the engine's fault envelope
// (core.RunLoop), and cancellation is checked at every round barrier,
// returning the partial cover together with ctx.Err().
func WeightedSetCoverContext(ctx context.Context, g *graphit.Graph, costs []int64, sched graphit.Schedule) (*SetCoverResult, error) {
	if !g.Symmetric() {
		return nil, fmt.Errorf("algo: set cover requires a symmetrized graph")
	}
	cfg, err := sched.Config()
	if err != nil {
		return nil, err
	}
	if cfg.Delta > 1 {
		return nil, fmt.Errorf("algo: set cover does not allow priority coarsening (∆=%d)", cfg.Delta)
	}
	n := g.NumVertices()
	if costs != nil && len(costs) != n {
		return nil, fmt.Errorf("algo: %d costs for %d sets", len(costs), n)
	}
	for v, c := range costs {
		if c <= 0 {
			return nil, fmt.Errorf("algo: set %d has non-positive cost %d", v, c)
		}
	}
	// ratio is the fixed-point cost-effectiveness of covering c elements
	// with set s.
	ratio := func(c int64, s uint32) int64 {
		if costs == nil {
			return c
		}
		return c * ratioPrec / costs[s]
	}
	elementsOf := func(v uint32, f func(e uint32)) {
		f(v)
		for _, e := range g.OutNeigh(v) {
			f(e)
		}
	}

	const unreserved = int64(math.MaxInt64)
	const uncoveredMark = int64(-1)
	var (
		coveredBy []int64 // element -> committed set
		chosen    []bool
		lz        *bucket.Lazy
	)
	st, err := core.RunLoop(ctx, cfg, loopInfo(core.Lazy.String(), g, n), func(workers int) core.Loop {
		coveredBy = make([]int64, n)
		reserve := make([]int64, n) // element -> reserving set this round
		prio := make([]int64, n)    // set -> cost-effectiveness of its uncovered elements
		chosen = make([]bool, n)
		for v := 0; v < n; v++ {
			coveredBy[v] = uncoveredMark
			reserve[v] = unreserved
			prio[v] = ratio(int64(g.OutDegree(graphit.VertexID(v)))+1, uint32(v)) // neighbors + self
		}
		lz = bucket.NewLazy(n, bucket.Decreasing, cfg.NumBuckets, func(v uint32) int64 {
			if p := prio[v]; p > 0 {
				return p
			}
			return bucket.NullBkt
		})
		var bid int64
		var sets, upd []uint32
		updated := make([][]uint32, workers)
		return core.Loop{
			Next: func() bool {
				bid, sets = lz.Next()
				return bid != bucket.NullBkt
			},
			Round: func(r *core.Round) {
				r.Bucket, r.Frontier = bid, len(sets)
				// Phase 1: reservation. Every ready set write-mins its id
				// onto its uncovered elements; the smallest set id wins
				// each element.
				r.ForChunks(len(sets), func(lo, hi, _ int) {
					for _, s := range sets[lo:hi] {
						elementsOf(s, func(e uint32) {
							if atomicutil.Load(&coveredBy[e]) == uncoveredMark {
								atomicutil.WriteMin(&reserve[e], int64(s))
							}
						})
					}
				})
				// Phase 2: commit or release. A set whose won elements
				// still give at least half the bucket's value keeps them;
				// others are re-bucketed by their true remaining coverage.
				threshold := (bid + 1) / 2
				r.ForChunks(len(sets), func(lo, hi, worker int) {
					for _, s := range sets[lo:hi] {
						var won int64
						elementsOf(s, func(e uint32) {
							if atomicutil.Load(&coveredBy[e]) == uncoveredMark &&
								atomicutil.Load(&reserve[e]) == int64(s) {
								won++
							}
						})
						if won > 0 && ratio(won, s) >= threshold {
							chosen[s] = true
							elementsOf(s, func(e uint32) {
								if atomicutil.Load(&reserve[e]) == int64(s) {
									atomicutil.Store(&coveredBy[e], int64(s))
								}
							})
							prio[s] = 0 // done; never re-bucketed
							continue
						}
						// Recompute true uncovered coverage; elements
						// committed this round by other sets read as
						// covered.
						var c int64
						elementsOf(s, func(e uint32) {
							if atomicutil.Load(&coveredBy[e]) == uncoveredMark {
								c++
							}
						})
						p := ratio(c, s)
						if c > 0 && p == 0 {
							// Cost so high the ratio truncates to zero: such
							// a set only matters for elements nothing else
							// covers; keep it live in the lowest bucket.
							p = 1
						}
						prio[s] = p
						if p > 0 {
							updated[worker] = append(updated[worker], s)
						}
					}
				})
				// Phase 3: release all reservations made this round.
				r.ForChunks(len(sets), func(lo, hi, _ int) {
					for _, s := range sets[lo:hi] {
						elementsOf(s, func(e uint32) {
							atomicutil.Store(&reserve[e], unreserved)
						})
					}
				})
				r.Stats.GlobalSyncs += 3
				upd = upd[:0]
				for i := range updated {
					upd = append(upd, updated[i]...)
					updated[i] = updated[i][:0]
				}
				lz.UpdateBuckets(upd)
			},
		}
	})

	num := 0
	for _, c := range chosen {
		if c {
			num++
		}
	}
	st.BucketInserts = lz.Inserts
	st.WindowAdvances = lz.Rebuckets
	return &SetCoverResult{
		Chosen:    chosen,
		CoveredBy: coveredBy,
		NumChosen: num,
		Stats:     st,
	}, err
}

// CoverCost sums the costs of the chosen sets.
func CoverCost(res *SetCoverResult, costs []int64) int64 {
	var total int64
	for v, c := range res.Chosen {
		if c {
			total += costs[v]
		}
	}
	return total
}
