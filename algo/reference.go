package algo

import (
	"container/heap"
	"fmt"

	"graphit"
)

// Sequential reference implementations used to verify every parallel
// schedule's output (DESIGN.md §7). They favor obvious correctness over
// speed.

// distHeap is a binary heap of (vertex, dist) pairs for Dijkstra.
type distHeap struct {
	v []uint32
	d []int64
}

func (h *distHeap) Len() int           { return len(h.v) }
func (h *distHeap) Less(i, j int) bool { return h.d[i] < h.d[j] }
func (h *distHeap) Swap(i, j int) {
	h.v[i], h.v[j] = h.v[j], h.v[i]
	h.d[i], h.d[j] = h.d[j], h.d[i]
}
func (h *distHeap) Push(x any) {
	p := x.([2]int64)
	h.v = append(h.v, uint32(p[0]))
	h.d = append(h.d, p[1])
}
func (h *distHeap) Pop() any {
	n := len(h.v) - 1
	p := [2]int64{int64(h.v[n]), h.d[n]}
	h.v, h.d = h.v[:n], h.d[:n]
	return p
}

// Dijkstra computes exact single-source shortest paths sequentially.
func Dijkstra(g *graphit.Graph, src graphit.VertexID) ([]int64, error) {
	if err := checkWeighted(g); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	dist := initDist(n, src)
	h := &distHeap{}
	heap.Push(h, [2]int64{int64(src), 0})
	for h.Len() > 0 {
		p := heap.Pop(h).([2]int64)
		v, d := uint32(p[0]), p[1]
		if d > dist[v] {
			continue // stale heap entry
		}
		wts := g.OutWts(v)
		for i, u := range g.OutNeigh(v) {
			nd := d + int64(wts[i])
			if nd < dist[u] {
				dist[u] = nd
				heap.Push(h, [2]int64{int64(u), nd})
			}
		}
	}
	return dist, nil
}

// RefKCore computes exact coreness with sequential bucket-queue peeling.
func RefKCore(g *graphit.Graph) ([]int64, error) {
	if !g.Symmetric() {
		return nil, fmt.Errorf("algo: k-core requires a symmetrized graph")
	}
	n := g.NumVertices()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graphit.VertexID(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket-sort vertices by degree (Matula-Beck smallest-last order).
	buckets := make([][]uint32, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], uint32(v))
	}
	core := make([]int64, n)
	removed := make([]bool, n)
	cur := make([]int, n)
	copy(cur, deg)
	for k := 0; k <= maxDeg; k++ {
		for i := 0; i < len(buckets[k]); i++ { // bucket grows during loop
			v := buckets[k][i]
			if removed[v] || cur[v] != k {
				continue // stale entry
			}
			removed[v] = true
			core[v] = int64(k)
			for _, u := range g.OutNeigh(v) {
				if !removed[u] && cur[u] > k {
					cur[u]--
					b := cur[u]
					if b < k {
						b = k
					}
					buckets[b] = append(buckets[b], u)
				}
			}
		}
	}
	return core, nil
}

// GreedySetCover computes the classic sequential greedy cover (repeatedly
// pick the set covering the most uncovered elements) in the same
// vertex-domination formulation as SetCover. Its cost is the quality
// yardstick for the parallel bucketed algorithm.
func GreedySetCover(g *graphit.Graph) ([]bool, int, error) {
	if !g.Symmetric() {
		return nil, 0, fmt.Errorf("algo: set cover requires a symmetrized graph")
	}
	n := g.NumVertices()
	covered := make([]bool, n)
	chosen := make([]bool, n)
	cnt := make([]int, n)
	maxCnt := 0
	for v := 0; v < n; v++ {
		cnt[v] = g.OutDegree(graphit.VertexID(v)) + 1
		if cnt[v] > maxCnt {
			maxCnt = cnt[v]
		}
	}
	// Lazy-decrement greedy with a bucket queue over coverage counts.
	buckets := make([][]uint32, maxCnt+1)
	for v := 0; v < n; v++ {
		buckets[cnt[v]] = append(buckets[cnt[v]], uint32(v))
	}
	numChosen, numCovered := 0, 0
	recount := func(s uint32) int {
		c := 0
		if !covered[s] {
			c++
		}
		for _, e := range g.OutNeigh(s) {
			if !covered[e] {
				c++
			}
		}
		return c
	}
	for b := maxCnt; b >= 1 && numCovered < n; b-- {
		for i := 0; i < len(buckets[b]); i++ {
			s := buckets[b][i]
			if chosen[s] {
				continue
			}
			c := recount(s)
			if c < b {
				if c >= 1 {
					buckets[c] = append(buckets[c], s)
				}
				continue
			}
			chosen[s] = true
			numChosen++
			if !covered[s] {
				covered[s] = true
				numCovered++
			}
			for _, e := range g.OutNeigh(s) {
				if !covered[e] {
					covered[e] = true
					numCovered++
				}
			}
		}
	}
	return chosen, numChosen, nil
}

// GreedyWeightedSetCover is the sequential cost-effectiveness greedy used
// as the quality yardstick for WeightedSetCover.
func GreedyWeightedSetCover(g *graphit.Graph, costs []int64) ([]bool, int64, error) {
	if !g.Symmetric() {
		return nil, 0, fmt.Errorf("algo: set cover requires a symmetrized graph")
	}
	n := g.NumVertices()
	covered := make([]bool, n)
	chosen := make([]bool, n)
	numCovered := 0
	var totalCost int64
	recount := func(s uint32) int64 {
		var c int64
		if !covered[s] {
			c++
		}
		for _, e := range g.OutNeigh(s) {
			if !covered[e] {
				c++
			}
		}
		return c
	}
	for numCovered < n {
		best, bestRatio := -1, float64(-1)
		for s := 0; s < n; s++ {
			if chosen[s] {
				continue
			}
			c := recount(uint32(s))
			if c == 0 {
				continue
			}
			r := float64(c) / float64(costs[s])
			if r > bestRatio {
				best, bestRatio = s, r
			}
		}
		if best < 0 {
			return nil, 0, fmt.Errorf("algo: greedy stuck with %d uncovered", n-numCovered)
		}
		chosen[best] = true
		totalCost += costs[best]
		mark := func(e uint32) {
			if !covered[e] {
				covered[e] = true
				numCovered++
			}
		}
		mark(uint32(best))
		for _, e := range g.OutNeigh(uint32(best)) {
			mark(e)
		}
	}
	return chosen, totalCost, nil
}
