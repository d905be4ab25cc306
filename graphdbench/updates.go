package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"graphit/internal/graph"
	"graphit/internal/livegraph"
	"graphit/internal/server"
)

// Shape of the mutation batches: reweights of edges of the base graph, and
// in every topoEvery-th batch also adds of fresh edges and removes of edges
// an earlier batch added. A batch that changes topology costs graphd a CSR
// rebuild, roughly ten times a reweight-only batch, while it holds the
// graph's lock. One in sixteen keeps the share of queries that wait for a
// rebuild to about 1%, well beyond p90, so query p90 measures queries
// rather than how many happened to collide with a rebuild; query p99,
// update latency and qexec.plan_us show those collisions.
const (
	batchOps      = 64
	batchAdds     = 4
	batchRemoves  = 4
	topoEvery     = 16
	maxEdgeWeight = 1000
	// updateWindow is how many consecutive batches may be in flight at
	// once. Batch k is sent only after every batch up to k-updateWindow has
	// completed, and removes only edges added by those batches, so every
	// op is legal in whatever order the in-flight batches apply.
	updateWindow = 2
)

type addedEdge struct {
	key   uint64 // src<<32 | dst
	batch int    // the batch that added it
}

// updateStream generates the mutation batches of one run and tracks their
// acknowledgements. Batch k depends only on the seed and k: reweights pick
// edges of the base graph (never removed, so always present), adds pick
// edges absent from the base graph and never added before, and removes
// take the oldest added edges whose add is at least updateWindow batches
// back (topoEvery >= updateWindow, so every earlier topology batch is). No
// generated op can draw "edge already exists" or "edge does not exist" from
// a correct server.
type updateStream struct {
	mu      sync.Mutex
	cond    *sync.Cond
	r       *rand.Rand
	g       *graph.Graph
	srcs    []uint32 // vertices with out-edges
	added   map[uint64]bool
	live    []addedEdge // added and not yet removed, oldest first
	batches [][]server.UpdateOp

	done   []bool
	doneLo int      // batches [0, doneLo) have all completed
	epochs []uint64 // acked epoch per batch; 0 = not acked
}

func newUpdateStream(g *graph.Graph, sources []uint32, seed int64) *updateStream {
	u := &updateStream{
		r:     rand.New(rand.NewSource(seed ^ 0x0bad5eed)),
		g:     g,
		srcs:  sources,
		added: make(map[uint64]bool),
	}
	u.cond = sync.NewCond(&u.mu)
	return u
}

// next generates the next batch and returns its number.
func (u *updateStream) next() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	k := len(u.batches)
	r := u.r
	ops := make([]server.UpdateOp, 0, batchOps)
	topo := k%topoEvery == 0
	for topo && len(ops) < batchRemoves && len(u.live) > 0 && u.live[0].batch <= k-updateWindow {
		e := u.live[0]
		u.live = u.live[1:]
		ops = append(ops, server.UpdateOp{Op: "remove", Src: uint32(e.key >> 32), Dst: uint32(e.key)})
	}
	n := u.g.NumVertices()
	for adds := 0; topo && adds < batchAdds; {
		s, d := uint32(r.Intn(n)), uint32(r.Intn(n))
		key := uint64(s)<<32 | uint64(d)
		if s == d || u.added[key] || u.g.HasEdge(s, d) {
			continue
		}
		u.added[key] = true
		u.live = append(u.live, addedEdge{key: key, batch: k})
		ops = append(ops, server.UpdateOp{Op: "add", Src: s, Dst: d, W: 1 + r.Int31n(maxEdgeWeight-1)})
		adds++
	}
	for len(ops) < batchOps {
		s := u.srcs[r.Intn(len(u.srcs))]
		nb := u.g.OutNeigh(s)
		ops = append(ops, server.UpdateOp{Op: "reweight", Src: s, Dst: nb[r.Intn(len(nb))], W: 1 + r.Int31n(maxEdgeWeight-1)})
	}
	// Interleave the kinds so a batch is not sorted by op.
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	u.batches = append(u.batches, ops)
	u.done = append(u.done, false)
	u.epochs = append(u.epochs, 0)
	return k
}

func (u *updateStream) ops(k int) []server.UpdateOp {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.batches[k]
}

// waitTurn blocks until batch k may be sent: every batch up to
// k-updateWindow has completed.
func (u *updateStream) waitTurn(k int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for u.doneLo < k-updateWindow+1 {
		u.cond.Wait()
	}
}

// finish records batch k's outcome: the epoch it was acked at, or 0.
func (u *updateStream) finish(k int, epoch uint64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.done[k] = true
	u.epochs[k] = epoch
	for u.doneLo < len(u.done) && u.done[u.doneLo] {
		u.doneLo++
	}
	u.cond.Broadcast()
}

// ackedInOrder returns the acked batch numbers sorted by epoch, and an error
// unless the acked epochs are exactly base+1, base+2, ... with one batch per
// epoch.
func (u *updateStream) ackedInOrder(base uint64) ([]int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	var ks []int
	for k, e := range u.epochs {
		if e != 0 {
			ks = append(ks, k)
		}
	}
	sort.Slice(ks, func(i, j int) bool { return u.epochs[ks[i]] < u.epochs[ks[j]] })
	for i, k := range ks {
		if want := base + uint64(i) + 1; u.epochs[k] != want {
			return ks, fmt.Errorf("acked epochs do not rise by one per batch: batch %d acked at epoch %d, want %d", k, u.epochs[k], want)
		}
	}
	return ks, nil
}

func liveOps(ops []server.UpdateOp) []livegraph.Op {
	out := make([]livegraph.Op, len(ops))
	for i, o := range ops {
		kind := livegraph.OpReweight
		switch o.Op {
		case "add":
			kind = livegraph.OpAdd
		case "remove":
			kind = livegraph.OpRemove
		}
		out[i] = livegraph.Op{Kind: kind, Src: o.Src, Dst: o.Dst, W: o.W}
	}
	return out
}
