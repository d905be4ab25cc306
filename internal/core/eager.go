package core

import (
	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/parallel"
)

// eagerBins is the bucketSource for eager bucket update (paper Figure 6):
// per-worker thread-local bins written directly during edge relaxation.
// next() is the paper's barrier-time min-reduction — the minimum non-empty
// bucket across all workers' bins, gathered into one shared frontier.
// update() is a no-op because eager traversals re-bucket inline.
type eagerBins struct {
	o    *Ordered
	bins []*bucket.LocalBins
	sc   *scratch
	cur  int64 // current bucket; re-inserts into it are reprocessed
}

func (e *eagerBins) next() (int64, []uint32) {
	nb := bucket.NullBkt
	for _, b := range e.bins {
		if p := b.MinNonEmpty(e.cur); p != bucket.NullBkt && p < nb {
			nb = p
		}
	}
	if nb == bucket.NullBkt {
		return bucket.NullBkt, nil
	}
	fr := e.sc.frontier[:0]
	for _, b := range e.bins {
		buf := b.Take(nb)
		fr = append(fr, buf...)
		b.Recycle(buf)
	}
	e.sc.frontier = fr
	e.cur = nb
	return nb, fr
}

func (e *eagerBins) update(ids []uint32) {}

func (e *eagerBins) finish(st *Stats) {
	for _, b := range e.bins {
		st.BucketInserts += b.Inserts
	}
}

// eagerPush is the SparsePush traversal over eager bins: workers relax the
// out-edges of the shared frontier with atomic write-min into their own
// bins, then (for eager_with_fusion) keep processing their current-priority
// local bin while it stays under the fusion threshold, without any global
// synchronization (Figure 7, lines 14–21).
//
// Each worker owns one contiguous slab of the frontier. Fusion keeps a
// worker's new work in its own bins, so the initial split decides how the
// whole fused chain divides: with a shared chunk cursor the calling worker
// claims nearly the entire frontier before a parked helper wakes and then
// fuses alone. A slab waits for its owner instead, so a late helper still
// gets its share and fuses its own wavefront. There is no stealing: taking
// another slab's chunks before fusing re-serializes the round onto the
// caller, and after fusing it measured slower with two concurrent runs.
type eagerPush struct {
	o      *Ordered
	ex     *parallel.Executor
	ups    []*Updater
	bins   []*bucket.LocalBins
	fusion bool
	grain  int
	ctl    *runCtl

	// The round in flight; body is the sweep, built once so a round
	// allocates nothing.
	bid      int64
	frontier []uint32
	body     func(worker int)
}

func (t *eagerPush) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	if t.body == nil {
		t.body = t.sweep
	}
	t.bid, t.frontier = bid, frontier
	t.ex.Run(t.body)
	t.frontier = nil
	return nil, false, t.ctl.aborted() != abortNone
}

// sweep is one worker's share of a round: its slab [w·F/W, (w+1)·F/W) of
// the frontier in grain-sized chunks, then its fused chain.
func (t *eagerPush) sweep(worker int) {
	o, bid := t.o, t.bid
	u := t.ups[worker]
	minPlus := u.minPlus()
	f, w := len(t.frontier), len(t.ups)
	hi := (worker + 1) * f / w
	for lo := worker * f / w; ; lo += t.grain {
		if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
			return
		}
		if lo >= hi {
			break
		}
		for _, v := range t.frontier[lo:min(lo+t.grain, hi)] {
			o.processPush(v, bid, u, minPlus)
		}
	}
	if !t.fusion {
		return
	}
	my := t.bins[worker]
	for {
		// The fusion checkpoint also breaks fusion livelocks: a UDF that
		// keeps re-inserting into the current bucket spins here without
		// ever reaching a global barrier, so this is the only point a
		// watchdog abort can interrupt it.
		if t.ctl.checkpoint(PhaseFusion, worker) {
			return
		}
		sz := my.Len(bid)
		if sz == 0 || sz > o.Cfg.FusionThreshold {
			return
		}
		mine := my.Take(bid)
		u.fused++
		for _, v := range mine {
			o.processPush(v, bid, u, minPlus)
		}
		my.Recycle(mine)
	}
}

// eagerPull is the DensePull traversal over eager bins: a serial mark of
// the dense frontier map (with the stale filter and finalize-on-pop), a
// parallel in-edge sweep over all vertices, and a serial clear. Destination
// updates need no atomics — each vertex is owned by one worker (Figure
// 9(b)) — and land in the owning worker's bins.
type eagerPull struct {
	o      *Ordered
	ex     *parallel.Executor
	ups    []*Updater
	inFron []bool
	grain  int
	ctl    *runCtl
}

func (t *eagerPull) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	o := t.o
	for _, v := range frontier {
		if o.bucketOf(atomicutil.Load(&o.Prio[v])) != bid {
			continue // stale: already handled in an earlier bucket
		}
		if o.fin != nil && !o.fin.TrySet(v) {
			continue
		}
		t.inFron[v] = true
	}
	n := o.G.NumVertices()
	t.ex.ForChunks(n, t.grain, func(lo, hi, worker int) {
		if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
			return
		}
		u := t.ups[worker]
		for v := lo; v < hi; v++ {
			o.processPull(uint32(v), t.inFron, u)
		}
	})
	for _, v := range frontier {
		t.inFron[v] = false
	}
	return nil, true, t.ctl.aborted() != abortNone
}

// processPush applies the UDF to the out-edges of v if v still belongs to
// the current bucket (GAPBS's stale-entry filter) and, under FinalizeOnPop,
// has not already been processed. With minPlus (see Updater.minPlus) it
// runs the inlined min-plus kernel instead of calling Apply per edge.
func (o *Ordered) processPush(v uint32, curBin int64, u *Updater, minPlus bool) {
	p := atomicutil.Load(&o.Prio[v])
	b := o.bucketOf(p)
	if b == bucket.NullBkt || b < curBin {
		return // stale: already handled in an earlier bucket
	}
	if o.fin != nil && !o.fin.TrySet(v) {
		return // already finalized (k-core processes each vertex once)
	}
	u.processed++
	g := o.G
	neigh := g.OutNeigh(v)
	wts := g.OutWts(v)
	if minPlus {
		// Apply → UpdatePriorityMin → record, inlined: the source priority
		// is loaded once, and a win lands in the worker's bins with the
		// same inversion clamp record applies.
		u.relaxations += int64(len(neigh))
		for i, d := range neigh {
			np := p
			if wts != nil {
				np += int64(wts[i])
			}
			if atomicutil.WriteMin(&o.Prio[d], np) {
				nb := o.bucketOf(np)
				if nb < curBin {
					nb = curBin
					u.inversions++
				}
				u.bins.Insert(nb, d)
			}
		}
		return
	}
	for i, d := range neigh {
		var wt int32
		if wts != nil {
			wt = wts[i]
		}
		u.relaxations++
		o.Apply(v, d, wt, u)
	}
}

// processPull applies the UDF to the in-edges of v that originate in the
// dense frontier. v is owned by exactly one worker this round, so its
// priority updates need no atomics.
func (o *Ordered) processPull(v uint32, inFron []bool, u *Updater) {
	if o.fin != nil && o.fin.IsSet(v) {
		return // finalized vertices accept no further updates
	}
	g := o.G
	neigh := g.InNeighbors(v)
	wts := g.InWeights(v)
	touched := false
	for i, src := range neigh {
		if !inFron[src] {
			continue
		}
		var wt int32
		if wts != nil {
			wt = wts[i]
		}
		u.relaxations++
		o.Apply(src, v, wt, u)
		touched = true
	}
	if touched {
		u.processed++
	}
}
