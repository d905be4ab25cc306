package core

import (
	"context"
	"fmt"
	"math/bits"

	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/graph"
	"graphit/internal/parallel"
)

// MaxLanes bounds the lane count of one multi-source run: pull rounds track
// per-vertex lane membership in a 64-bit mask.
const MaxLanes = 64

// MultiOrdered executes k single-source ordered operators ("lanes") as one
// shared round loop: one frontier, one Julienne bucket structure keyed by the
// minimum pending priority across lanes, one edge sweep per round that applies
// the UDF once per (edge, active lane). Each lane's priority vector converges
// to exactly the fixpoint an independent single-source run would reach —
// min-updates are monotone and order-independent — while the traversal cost
// (frontier walks, neighbor loads, bucket maintenance) is paid once instead of
// k times.
//
// Only the lazy strategy with lower_first (increasing) order is supported:
// lazy's extraction-time stale filter is what makes a shared bucket structure
// with per-lane pending state sound. Deduplication is always on (NoDedup is
// ignored); OnFault=retry_serial is rejected — a faulted multi run fails with
// partial per-lane stats.
type MultiOrdered struct {
	G *graph.Graph
	// Lanes[l] is lane l's priority vector (e.g. dist for SSSP) — exactly the
	// Prio an independent single-source run would own. The run mutates it in
	// place; after a clean return it equals the independent run's result
	// element-wise.
	Lanes [][]int64
	Order bucket.Order
	// Apply is the shared edge UDF, invoked once per (edge, active lane) with
	// an Updater bound to that lane's priority vector.
	Apply EdgeFunc
	// RelaxMinPlus declares that Apply is exactly the canonical ∆-stepping
	// relaxation — dist[d] = min(dist[d], dist[s]+w) with no finished-vertex
	// filtering — letting push rounds run a fused lane-batched kernel instead
	// of calling Apply per (edge, lane): the consumed source priority is
	// hoisted out of the edge sweep and the min-update is inlined, saving
	// two indirect calls and a redundant atomic source load per lane per
	// edge. This is the specialization the GraphIt compiler would emit for
	// the Figure 3 UDF; the interpreter takes it as a declaration.
	// Ordered.RelaxMinPlus is the single-source counterpart. Pull rounds
	// still call Apply, so it must stay equivalent.
	RelaxMinPlus bool
	// Stops holds optional per-lane early-termination conditions: nil, or one
	// entry per lane (entries may be nil). A stopped lane does no further edge
	// work — its remaining bucket entries drain without sweeps — and the run
	// ends when every lane has stopped or exhausted its buckets.
	Stops []StopFunc
	// Sources[l] is lane l's start vertex. A lane whose source priority is
	// Unreached is inert (no work, untouched vector).
	Sources []graph.VertexID
	// Trace, if set, observes the shared round loop (per-round events carry
	// totals across lanes).
	Trace Tracer

	Cfg Config
}

// LaneStats is the per-lane slice of a multi-source run's counters.
type LaneStats struct {
	// Relaxations counts edge-function applications charged to this lane.
	Relaxations int64 `json:"relaxations"`
	// Processed counts vertex dequeues swept on behalf of this lane.
	Processed int64 `json:"processed"`
}

// MultiStats reports one multi-source run: the shared round-loop counters
// (rounds, syncs, bucket work are paid once for all lanes) plus the per-lane
// relaxation/processed split.
type MultiStats struct {
	Stats
	Lanes []LaneStats `json:"lanes"`
}

// Lane returns lane l's view of the run's counters: the shared round totals
// with Relaxations/Processed scoped to that lane. An out-of-range l returns
// the shared Stats unchanged.
func (ms MultiStats) Lane(l int) Stats {
	st := ms.Stats
	if l >= 0 && l < len(ms.Lanes) {
		st.Relaxations = ms.Lanes[l].Relaxations
		st.Processed = ms.Lanes[l].Processed
	}
	return st
}

func (mo *MultiOrdered) validate() error {
	if mo.G == nil {
		return fmt.Errorf("core: nil graph")
	}
	if mo.Apply == nil {
		return fmt.Errorf("core: nil edge function")
	}
	if mo.Order != bucket.Increasing {
		return fmt.Errorf("core: multi-source runs support lower_first (increasing) order only")
	}
	if mo.Cfg.Strategy != Lazy {
		return fmt.Errorf("core: multi-source runs require the lazy strategy (got %s)", mo.Cfg.Strategy)
	}
	if mo.Cfg.OnFault == FaultRetrySerial {
		return fmt.Errorf("core: OnFault=retry_serial is not supported for multi-source runs")
	}
	k := len(mo.Lanes)
	if k < 1 || k > MaxLanes {
		return fmt.Errorf("core: multi-source runs take 1..%d lanes (got %d)", MaxLanes, k)
	}
	n := mo.G.NumVertices()
	for l, p := range mo.Lanes {
		if len(p) != n {
			return fmt.Errorf("core: lane %d priority vector has %d entries for %d vertices", l, len(p), n)
		}
	}
	if len(mo.Sources) != k {
		return fmt.Errorf("core: %d sources for %d lanes", len(mo.Sources), k)
	}
	if mo.Stops != nil && len(mo.Stops) != k {
		return fmt.Errorf("core: %d stop conditions for %d lanes", len(mo.Stops), k)
	}
	if mo.Cfg.Direction != SparsePush && !mo.G.HasInEdges() {
		return fmt.Errorf("core: %s requires in-edges", mo.Cfg.Direction)
	}
	return nil
}

// initialActive builds the deduplicated union of the lane sources, validating
// ranges and priority signs along the way.
func (mo *MultiOrdered) initialActive() ([]uint32, error) {
	n := mo.G.NumVertices()
	act := make([]uint32, 0, len(mo.Sources))
	seen := make(map[uint32]struct{}, len(mo.Sources))
	for l, v := range mo.Sources {
		if int(v) >= n {
			return nil, fmt.Errorf("core: lane %d source vertex %d out of range (graph has %d vertices)", l, v, n)
		}
		p := mo.Lanes[l][v]
		if p == Unreached {
			continue // inert lane
		}
		if p < 0 {
			return nil, fmt.Errorf("core: lane %d source vertex %d has negative priority %d (priorities must be non-negative)", l, v, p)
		}
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		act = append(act, v)
	}
	return act, nil
}

// Run executes the multi-source operator to completion.
func (mo *MultiOrdered) Run() (MultiStats, error) {
	return mo.RunContext(context.Background())
}

// RunContext executes the multi-source operator under ctx with the same
// cancellation, watchdog, and panic-containment envelope as
// Ordered.RunContext (minus serial retry, which validate rejects). On a
// contained fault or cancellation the lane vectors hold a partially-relaxed
// (still monotone-safe) state and MultiStats carries the partial counters.
func (mo *MultiOrdered) RunContext(ctx context.Context) (MultiStats, error) {
	mo.Cfg.normalize()
	if err := mo.validate(); err != nil {
		return MultiStats{}, err
	}
	k := len(mo.Lanes)
	n := mo.G.NumVertices()
	ms := MultiStats{Lanes: make([]LaneStats, k)}

	// face is the engine's view of the run: engine.run reads only Cfg, Stop,
	// and (via runInfo) G from it. Prio stays nil — all priority access goes
	// through the lane-bound updaters and multiRun's pending state.
	face := &Ordered{G: mo.G, Order: mo.Order, Apply: mo.Apply, Trace: mo.Trace, Cfg: mo.Cfg}
	m := &multiRun{mo: mo, face: face, k: k, n: n, stopped: make([]bool, k), deltaShift: -1}
	if d := face.Cfg.Delta; d&(d-1) == 0 { // normalize() guarantees d >= 1
		m.deltaShift = bits.TrailingZeros64(uint64(d))
	}
	if mo.Stops != nil {
		face.Stop = m.stop
	}

	active, err := mo.initialActive()
	if err != nil {
		return MultiStats{}, err
	}
	tr := face.tracer(ctx)
	_, isNop := tr.(NopTracer)
	trace := !isNop
	if len(active) == 0 {
		if trace {
			tr.RunStart(face.runInfo(0))
			tr.RunEnd(Stats{}, nil)
		}
		return ms, nil
	}

	ex := parallel.Acquire(mo.Cfg.Workers)
	ctl := newRunCtl(ctx)
	var stopWatch func()
	if mo.Cfg.RoundTimeout > 0 {
		stopWatch = ctl.startWatchdog(ctx, mo.Cfg.RoundTimeout)
	}
	sc := getScratch()
	w := ex.Workers()
	grain := mo.Cfg.Grain
	if grain <= 0 {
		grain = parallel.DefaultGrain
	}
	// One lane-view Ordered per lane gives the per-worker updaters per-lane
	// priority semantics for free: updater i serves lane i%k on worker i/k.
	views := make([]*Ordered, k)
	for l := range views {
		views[l] = &Ordered{G: mo.G, Prio: mo.Lanes[l], Order: mo.Order, Apply: mo.Apply, Cfg: mo.Cfg}
	}

	// The serial min-plus case runs the (lane, vertex)-granular fast path:
	// ids are l<<nLog|v (nPad = n rounded up to a power of two), so each
	// lane's relaxations sweep its own original Lanes[l] slice with the
	// same packed locality an independent run enjoys, and the pend/dedup
	// machinery below is never allocated. See laneRun.
	nPad := 1
	for nPad < n {
		nPad <<= 1
	}
	laneSerial := mo.RelaxMinPlus && mo.Stops == nil && w == 1 &&
		mo.Cfg.Direction != DensePull && uint64(k)*uint64(nPad) <= 1<<32

	var (
		ups  []*Updater
		t    *multiTrav
		lt   *laneTrav
		src  *multiSource
		trav traversal
	)
	if laneSerial {
		lr := &laneRun{
			mo: mo, n: n, k: k, nPad: nPad,
			nLog:  uint(bits.TrailingZeros(uint(nPad))),
			delta: face.Cfg.Delta, deltaShift: m.deltaShift,
			state: sc.getLaneState(k * nPad),
		}
		lz := bucket.NewLazyFrom(k*nPad, mo.Order, mo.Cfg.NumBuckets, lr.bktOfID, lr.sourceIDs())
		lz.SetSelfFiltered()
		ups = sc.getMultiUpdaters(views, 1, nil)
		lt = &laneTrav{
			r: lr, lz: lz, ups: ups, ctl: ctl,
			casc:      sc.laneCasc[:0],
			part:      sc.lanePart,
			cnt:       make([]int, k+1),
			pos:       make([]int, k),
			laneRelax: make([]int64, k),
			laneProc:  make([]int64, k),
		}
		src = &multiSource{lz: lz}
		trav = lt
	} else {
		// proc is the flat k×n processed-priority matrix: lane l is pending
		// at v iff Lanes[l][v] < proc[l*n+v]. Consuming an entry copies the
		// priority into proc, so a later min-update re-opens exactly the
		// improved lanes.
		m.proc = make([]int64, k*n)
		for i := range m.proc {
			m.proc[i] = Unreached
		}
		// pend is the per-vertex pending-lane bitmask — a conservative
		// superset of the lanes pending at each vertex (priorities are the
		// truth; a set bit may be stale, a pending lane always has its bit
		// set). Updaters OR their lane bit on every winning update; consume
		// loops swap the word clear and restore later-bucket bits. It exists
		// so the consume loops and the bucket keyer touch only lanes with
		// real work instead of scanning all k per vertex — k scattered loads
		// per vertex is what made the shared run slower than k independent
		// ones.
		m.pend = make([]uint64, n)
		for l, v := range mo.Sources {
			if mo.Lanes[l][v] != Unreached {
				m.pend[v] |= 1 << uint(l)
			}
		}
		ups = sc.getMultiUpdaters(views, w, m.pend)
		lz := bucket.NewLazyFrom(n, mo.Order, mo.Cfg.NumBuckets, m.bktOf, active)
		lz.SetParallel(ex, 0)
		t = &multiTrav{
			m: m, ex: ex, sc: sc, ups: ups, k: k,
			dedup:         sc.getDedup(n),
			grain:         grain,
			pullThreshold: int64(mo.G.NumEdges()) / 20,
			ctl:           ctl,
			laneBuf:       make([][]int, w),
			prioBuf:       make([][]int64, w),
			laneRelax:     make([]int64, k),
			laneProc:      make([]int64, k),
		}
		for i := range t.laneBuf {
			t.laneBuf[i] = make([]int, 0, k)
			t.prioBuf[i] = make([]int64, 0, k)
		}
		if mo.Cfg.Direction != SparsePush {
			_, t.nextMap = sc.getDense(n)
			t.laneMask = sc.getLaneMask(n)
		}
		src = &multiSource{lz: lz}
		trav = t
	}
	e := &engine{o: face, src: src, trav: trav, ups: ups, ex: ex, ctl: ctl}

	if trace {
		tr.RunStart(face.runInfo(len(active)))
	}
	var runErr error
	clean := true
	fault, err := e.run(ctx, tr, &ms.Stats)
	e.src.finish(&ms.Stats)
	if fault != nil {
		// No retry policy for multi runs: a contained fault is terminal.
		runErr = fault
		clean = false
	} else {
		runErr = err
	}
	if stopWatch != nil {
		stopWatch()
	}
	if trace {
		tr.RunEnd(ms.Stats, runErr)
	}
	var laneRelax, laneProc []int64
	if lt != nil {
		laneRelax, laneProc = lt.laneRelax, lt.laneProc
		// Keep the grown cascade/partition buffers with the scratch.
		sc.laneCasc, sc.lanePart = lt.casc, lt.part
	} else {
		laneRelax, laneProc = t.laneRelax, t.laneProc
	}
	for l := range ms.Lanes {
		ms.Lanes[l] = LaneStats{Relaxations: laneRelax[l], Processed: laneProc[l]}
	}
	if ctl.aborted() != abortNone {
		clean = false
	}
	if clean {
		putScratch(sc)
	}
	parallel.Release(ex)
	return ms, runErr
}

// multiRun is the shared pending state of one multi-source run.
type multiRun struct {
	mo      *MultiOrdered
	face    *Ordered
	k, n    int
	proc    []int64  // k×n flat processed-priority matrix
	pend    []uint64 // per-vertex pending-lane bitmask (conservative superset)
	stopped []bool   // per-lane stop flags, written by stop() between rounds

	// deltaShift is log2(∆) when ∆ is a power of two, else -1. bucketOfP is
	// on the per-(vertex, lane) hot path of every consume loop and bucket
	// update; a shift there instead of an int64 division is worth several
	// percent of the whole run (tuned ∆s are powers of two throughout).
	deltaShift int
}

func (m *multiRun) bucketOfP(p int64) int64 {
	if m.deltaShift >= 0 {
		return p >> uint(m.deltaShift)
	}
	return p / m.face.Cfg.Delta
}

// bktOf maps a vertex to the minimum bucket over all lanes pending at it, or
// NullBkt when no lane is pending. Only lanes with their pend bit set are
// examined — every pending lane has its bit set (updaters OR after the
// winning CAS, consume loops restore later-bucket bits), and each set bit is
// still verified against the priorities, so spurious bits cost one load.
// Stopped lanes are included on purpose: their entries must still drain
// through extraction (and be consumed without edge work) or they would pin
// stale buckets forever. Lane priorities are read with atomic loads,
// satisfying SetParallel's contract; proc is only written inside relax
// phases, which never overlap bucket updates.
func (m *multiRun) bktOf(v uint32) int64 {
	best := bucket.NullBkt
	vi := int(v)
	for rem := atomicutil.LoadU64(&m.pend[v]); rem != 0; rem &= rem - 1 {
		l := bits.TrailingZeros64(rem)
		p := atomicutil.Load(&m.mo.Lanes[l][vi])
		if p < m.proc[l*m.n+vi] {
			if b := m.bucketOfP(p); b < best {
				best = b
			}
		}
	}
	return best
}

// stop is the facade StopFunc: it advances the per-lane stop conditions and
// halts the engine only when every lane has stopped. A lane with a nil
// condition never stops early, so the run drains to the fixpoint.
func (m *multiRun) stop(cur int64) bool {
	all := true
	for l, sf := range m.mo.Stops {
		if m.stopped[l] {
			continue
		}
		if sf != nil && sf(cur) {
			m.stopped[l] = true
			continue
		}
		all = false
	}
	return all
}

// multiSource is the bucketSource over the shared min-across-lanes buckets.
// Updated ids arrive deduplicated (multi runs force CAS dedup), so no
// DedupeIDs pass is needed at this seam.
type multiSource struct {
	lz *bucket.Lazy
}

func (s *multiSource) next() (int64, []uint32) { return s.lz.Next() }
func (s *multiSource) update(ids []uint32)     { s.lz.UpdateBuckets(ids) }
func (s *multiSource) finish(st *Stats) {
	st.BucketInserts += s.lz.Inserts
	st.WindowAdvances += s.lz.Rebuckets
	st.Inversions += s.lz.Inversions
}

// multiTrav is the lane-masked edge-map traversal: each frontier vertex is
// consumed per pending lane at the current bucket, then swept once with the
// UDF applied per active lane through that lane's updater. A vertex with a
// lane pending in a later bucket is re-queued so the shared structure keeps
// tracking its next-earliest priority.
type multiTrav struct {
	m             *multiRun
	ex            *parallel.Executor
	sc            *scratch
	ups           []*Updater // worker-major: ups[w*k+l] is worker w's lane-l updater
	k             int
	dedup         *atomicutil.Flags
	laneMask      []uint64  // pull: per-vertex active-lane bitmask of the frontier
	nextMap       []bool    // pull: dense changed map (also carries requeue marks)
	laneBuf       [][]int   // per-worker active-lane scratch for the consume loop
	prioBuf       [][]int64 // per-worker consumed-priority scratch, parallel to laneBuf
	grain         int
	pullThreshold int64
	ctl           *runCtl

	// Hoisted sweep bodies, as in lazyTrav: closure literals in the hot path
	// would escape per round and break the zero-alloc steady state.
	pushBody func(lo, hi, worker int)
	pullBody func(lo, hi, worker int)
	keepNext func(i int) bool
	curVerts []uint32
	curBid   int64

	laneRelax []int64
	laneProc  []int64
}

func (t *multiTrav) relax(bid, curPrio int64, frontier []uint32) ([]uint32, bool, bool) {
	cfg := &t.m.face.Cfg
	pull := cfg.Direction == DensePull
	if cfg.Direction == Hybrid {
		pull = t.m.face.G.TotalOutDegree(frontier)+int64(len(frontier)) > t.pullThreshold
	}
	for _, u := range t.ups {
		if pull {
			u.atomics, u.next, u.dedup = false, t.nextMap, nil
		} else {
			u.atomics, u.next, u.dedup = true, nil, t.dedup
		}
	}
	var updated []uint32
	if pull {
		updated = t.pullRound(bid, frontier)
	} else {
		updated = t.pushRound(bid, frontier)
	}
	// Split this round's counters by lane before engine.fold zeroes them.
	for i, u := range t.ups {
		l := i % t.k
		t.laneRelax[l] += u.relaxations
		t.laneProc[l] += u.processed
	}
	return updated, pull, t.ctl.aborted() != abortNone
}

// pushRound consumes each frontier vertex's current-bucket lanes and sweeps
// its out-edges once, applying the UDF per active lane with atomic updates
// into the shared CAS-deduplicated change buffer.
func (t *multiTrav) pushRound(bid int64, verts []uint32) []uint32 {
	if t.pushBody == nil {
		t.pushBody = func(lo, hi, worker int) {
			if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
				return
			}
			m := t.m
			g := m.face.G
			apply := m.mo.Apply
			fused := m.mo.RelaxMinPlus
			base := worker * t.k
			lanes := t.laneBuf[worker]
			prios := t.prioBuf[worker]
			for _, v := range t.curVerts[lo:hi] {
				// Swap the pend word clear BEFORE loading priorities: an
				// improvement that CASes before the load is captured in the
				// priority we read; one that CASes after re-ORs its bit after
				// this swap, so it survives for a later round either way.
				mask := atomicutil.SwapU64(&m.pend[v], 0)
				if mask == 0 {
					continue // duplicate extraction; no lane pending
				}
				lanes, prios = lanes[:0], prios[:0]
				var reset uint64
				vi := int(v)
				for rem := mask; rem != 0; rem &= rem - 1 {
					l := bits.TrailingZeros64(rem)
					pi := l*m.n + vi
					p := atomicutil.Load(&m.mo.Lanes[l][vi])
					if p >= m.proc[pi] {
						continue // stale bit: lane not pending at v
					}
					if m.bucketOfP(p) != t.curBid {
						reset |= 1 << uint(l) // pending in a later bucket
						continue
					}
					m.proc[pi] = p // consume
					if m.stopped[l] {
						continue // stopped lane: drain without edge work
					}
					lanes = append(lanes, l)
					prios = append(prios, p)
				}
				if reset != 0 {
					atomicutil.OrU64(&m.pend[v], reset)
					if t.dedup.TrySet(v) {
						u0 := t.ups[base]
						u0.out = append(u0.out, v)
					}
				}
				if len(lanes) == 0 {
					continue
				}
				neigh := g.OutNeigh(v)
				wts := g.OutWts(v)
				for _, l := range lanes {
					u := t.ups[base+l]
					u.processed++
					u.relaxations += int64(len(neigh))
				}
				if fused {
					// Fused min-plus sweep: the consumed priority IS the
					// source distance, so each (edge, lane) is one WriteMin
					// on the lane vector plus the pend/dedup bookkeeping a
					// winning record() would do, with no calls into Apply.
					out := t.ups[base].out
					for i, d := range neigh {
						var w64 int64
						if wts != nil {
							w64 = int64(wts[i])
						}
						for j, l := range lanes {
							if atomicutil.WriteMin(&m.mo.Lanes[l][d], prios[j]+w64) {
								atomicutil.OrU64(&m.pend[d], 1<<uint(l))
								if t.dedup.TrySet(d) {
									out = append(out, d)
								}
							}
						}
					}
					t.ups[base].out = out
					continue
				}
				for i, d := range neigh {
					var wt int32
					if wts != nil {
						wt = wts[i]
					}
					for _, l := range lanes {
						apply(v, d, wt, t.ups[base+l])
					}
				}
			}
		}
	}
	t.curVerts, t.curBid = verts, bid
	if t.ex.Workers() == 1 && t.m.mo.RelaxMinPlus {
		t.pushSerialFused(bid, verts)
	} else {
		t.ex.ForChunks(len(verts), t.grain, t.pushBody)
	}
	t.curVerts = nil
	updated := t.sc.updated[:0]
	for _, u := range t.ups {
		updated = append(updated, u.out...)
		u.out = u.out[:0]
	}
	t.sc.updated = updated
	t.dedup.ResetList(updated)
	return updated
}

// pushSerialFused is the single-worker min-plus push round: with one worker
// there are no concurrent writers, so the min-writes, pend marks, and dedup
// flags all shed their atomics, and the single-active-lane case (the common
// one when lane wavefronts do not overlap) runs as a straight-line loop. On
// a one-CPU host this synchronization shedding — which k independent runs
// cannot do, since each pays the engine's full parallel-safety tax — is the
// bulk of the batched speedup.
func (t *multiTrav) pushSerialFused(bid int64, verts []uint32) {
	if t.ctl.checkpoint(PhaseRelaxChunk, 0) {
		return
	}
	m := t.m
	g := m.face.G
	lanes := t.laneBuf[0]
	prios := t.prioBuf[0]
	out := t.ups[0].out
	for _, v := range verts {
		mask := m.pend[v]
		if mask == 0 {
			continue // duplicate extraction; no lane pending
		}
		m.pend[v] = 0
		lanes, prios = lanes[:0], prios[:0]
		var reset uint64
		vi := int(v)
		for rem := mask; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros64(rem)
			pi := l*m.n + vi
			p := m.mo.Lanes[l][vi]
			if p >= m.proc[pi] {
				continue // stale bit: lane not pending at v
			}
			if m.bucketOfP(p) != bid {
				reset |= 1 << uint(l) // pending in a later bucket
				continue
			}
			m.proc[pi] = p // consume
			if m.stopped[l] {
				continue // stopped lane: drain without edge work
			}
			lanes = append(lanes, l)
			prios = append(prios, p)
		}
		if reset != 0 {
			m.pend[v] |= reset
			if t.dedup.TrySetUnsync(v) {
				out = append(out, v)
			}
		}
		if len(lanes) == 0 {
			continue
		}
		neigh := g.OutNeigh(v)
		wts := g.OutWts(v)
		for _, l := range lanes {
			u := t.ups[l]
			u.processed++
			u.relaxations += int64(len(neigh))
		}
		if len(lanes) == 1 {
			l := lanes[0]
			dist := m.mo.Lanes[l]
			bit := uint64(1) << uint(l)
			p := prios[0]
			for i, d := range neigh {
				np := p
				if wts != nil {
					np += int64(wts[i])
				}
				if np < dist[d] {
					dist[d] = np
					m.pend[d] |= bit
					if t.dedup.TrySetUnsync(d) {
						out = append(out, d)
					}
				}
			}
			continue
		}
		for i, d := range neigh {
			var w64 int64
			if wts != nil {
				w64 = int64(wts[i])
			}
			for j, l := range lanes {
				np := prios[j] + w64
				dist := m.mo.Lanes[l]
				if np < dist[d] {
					dist[d] = np
					m.pend[d] |= 1 << uint(l)
					if t.dedup.TrySetUnsync(d) {
						out = append(out, d)
					}
				}
			}
		}
	}
	t.ups[0].out = out
}

// pullRound builds the frontier's per-vertex lane masks serially (consuming
// current-bucket entries and marking later-bucket requeues), then sweeps the
// in-edges of all vertices in parallel; destination updates need no atomics —
// each vertex is owned by one worker, and its k lane updaters run on that
// worker sequentially.
func (t *multiTrav) pullRound(bid int64, verts []uint32) []uint32 {
	m := t.m
	n := m.n
	for _, v := range verts {
		// Same swap-consume discipline as pushBody; this pre-pass is serial,
		// but updaters in the following sweep OR concurrently with nothing —
		// the atomic swap keeps the protocol uniform across directions.
		pending := atomicutil.SwapU64(&m.pend[v], 0)
		var mask, reset uint64
		vi := int(v)
		for rem := pending; rem != 0; rem &= rem - 1 {
			l := bits.TrailingZeros64(rem)
			pi := l*n + vi
			p := atomicutil.Load(&m.mo.Lanes[l][vi])
			if p >= m.proc[pi] {
				continue
			}
			if m.bucketOfP(p) != bid {
				reset |= 1 << uint(l)
				continue
			}
			m.proc[pi] = p
			if m.stopped[l] {
				continue
			}
			mask |= 1 << uint(l)
		}
		if reset != 0 {
			atomicutil.OrU64(&m.pend[v], reset)
			t.nextMap[v] = true
		}
		t.laneMask[v] = mask
	}
	if t.pullBody == nil {
		t.pullBody = func(lo, hi, worker int) {
			if t.ctl.checkpoint(PhaseRelaxChunk, worker) {
				return
			}
			m := t.m
			g := m.face.G
			apply := m.mo.Apply
			base := worker * t.k
			for v := lo; v < hi; v++ {
				neigh := g.InNeighbors(uint32(v))
				wts := g.InWeights(uint32(v))
				var touched uint64
				for i, s := range neigh {
					msk := t.laneMask[s]
					if msk == 0 {
						continue
					}
					var wt int32
					if wts != nil {
						wt = wts[i]
					}
					for rem := msk; rem != 0; rem &= rem - 1 {
						u := t.ups[base+bits.TrailingZeros64(rem)]
						u.relaxations++
						apply(s, uint32(v), wt, u)
					}
					touched |= msk
				}
				for rem := touched; rem != 0; rem &= rem - 1 {
					t.ups[base+bits.TrailingZeros64(rem)].processed++
				}
			}
		}
		t.keepNext = func(i int) bool { return t.nextMap[i] }
	}
	t.ex.ForChunks(n, t.grain, t.pullBody)
	if t.ctl.aborted() != abortNone {
		// The engine discards updated on an aborted round and never pools the
		// (now dirty) scratch — skip the pack and clears, as lazyTrav does.
		return nil
	}
	updated := t.ex.PackIndicesInto(t.sc.updated[:0], n, &t.sc.pack, t.keepNext)
	t.sc.updated = updated
	for _, v := range verts {
		t.laneMask[v] = 0
	}
	for _, v := range updated {
		t.nextMap[v] = false
	}
	return updated
}

// laneRun is the state of the serial (lane, vertex)-granular fast path. Ids
// are l<<nLog | v (nPad = n rounded up to a power of two, so the split is a
// shift and a mask); the priority planes are the original Lanes[l] slices —
// no copy, and each lane's relaxations enjoy the same packed wavefront
// locality an independent run does, which an interleaved layout loses k-fold
// — and proc[id] is the priority the id was last consumed at. An id pends
// iff its priority is below proc[id]. With one worker there are no
// concurrent writers, so everything runs on plain loads and stores, and a
// winning relaxation moves the target id itself: same-bucket wins go onto
// an in-round cascade stack that bypasses the bucket structure entirely
// (the bulk of ∆-stepping's re-queues when ∆ exceeds the typical weight),
// and cross-bucket wins are inserted directly at their new bucket
// (eager-style, but into the lazy structure, whose extraction-time filter
// tolerates duplicate copies). The pend bitmask, CAS dedup flags, per-round
// updated buffer, and bulk UpdateBuckets pass of the generic path all
// disappear. A Hybrid run on this path never chooses pull rounds —
// direction is a performance hint, and the fast path exists for sparse
// multi-lane wavefronts.
type laneRun struct {
	mo   *MultiOrdered
	n, k int
	nPad int
	nLog uint
	// state[id] is nonzero while id has a live entry queued at its
	// priority's bucket (in a slab, the cascade queue, or an unswept
	// frontier slot), 0 otherwise. One byte per id instead of a consumed-at
	// priority: a cross-bucket stale copy is recognizable by bucket
	// comparison alone — priorities only decrease, so once a value leaves a
	// bucket's range it never returns — and this plane is 8x smaller than
	// an int64 one, which matters because it is the one randomly-indexed
	// array every consume and every win must touch.
	//
	// The nonzero value is bucketTag of the bucket the entry was queued at,
	// so the win path's already-queued-here check is a single byte compare
	// with no second bucket division. Tags keep only 7 bucket bits; a
	// collision (live entry ≥ 128 buckets away, same residue) skips a
	// re-queue and leaves the id to be consumed at its live entry's bucket
	// with the already-improved priority — late but correct, since the
	// consume reads the current priority and a live entry always exists
	// while state is nonzero.
	state      []byte
	delta      int64
	deltaShift int // log2(delta) when delta is a power of two, else -1
}

func (r *laneRun) bucketOfP(p int64) int64 {
	if r.deltaShift >= 0 {
		return p >> uint(r.deltaShift)
	}
	return p / r.delta
}

// bktOfID keys the shared buckets: a queued id maps to its current
// priority's bucket, a consumed id to NullBkt. A stale copy of a queued id
// sits at a higher bucket than the priority's and is dropped by the
// extraction filter's bucket comparison (or re-placed correctly by a window
// advance; the resulting same-bucket duplicate is deduplicated by the lazy
// structure's epoch filter and by the consume check).
func (r *laneRun) bktOfID(id uint32) int64 {
	if r.state[id] == 0 {
		return bucket.NullBkt
	}
	l := int(id >> r.nLog)
	v := int(id) & (r.nPad - 1)
	return r.bucketOfP(r.mo.Lanes[l][v])
}

// bucketTag is the state-byte value of an id queued at bucket b: the low 7
// bucket bits and a set live bit, so it is never zero.
func bucketTag(b int64) byte {
	return byte(b<<1) | 1
}

// sourceIDs returns the initial bucket population: one id per non-inert lane.
func (r *laneRun) sourceIDs() []uint32 {
	ids := make([]uint32, 0, r.k)
	for l, v := range r.mo.Sources {
		if r.mo.Lanes[l][v] != Unreached {
			id := uint32(l<<r.nLog | int(v))
			r.state[id] = bucketTag(r.bucketOfP(r.mo.Lanes[l][v]))
			ids = append(ids, id)
		}
	}
	return ids
}

// laneTrav is the fast path's traversal: one plain sweep over the extracted
// (lane, vertex) ids plus the cascade they trigger. It returns no updated
// ids, so the engine's bulk bucket update is a no-op; one round drains one
// bucket completely.
//
// Bucket-order soundness of consuming without a bucket check: an id is
// extracted only when its bucket matched the round's (Next filters on
// bktOfID), and a cascaded or re-improved priority is a current-bucket
// priority plus a non-negative weight, below the value it improves — both
// keep the id inside the current bucket, so processing at the latest
// priority is the same cascade the generic path handles by re-extracting
// the bucket, minus the round trips through it.
type laneTrav struct {
	r    *laneRun
	lz   *bucket.Lazy
	ups  []*Updater // one per lane
	ctl  *runCtl
	casc []uint32 // in-round cascade queue of same-bucket wins
	part []uint32 // slab ids scattered into per-lane segments
	cnt  []int    // per-lane segment bounds in part (len k+1)
	pos  []int    // scatter cursors (len k)

	laneRelax []int64
	laneProc  []int64
}

// relax consumes the extracted ids (raw slabs — the state plane is the
// stale/duplicate filter) and the cascade they trigger, relaxing each
// consumed id's out-edges in one flat loop. A winning relaxation moves the
// target id inline: an id already queued in the same target bucket is
// skipped — its live entry (a cascade slot, an unswept frontier position,
// or a queued bucket copy) is swept at the improved priority when its turn
// comes — while a bucket change files a fresh entry and strands the old
// copy, recognized at its bucket's extraction by the consume check (state
// already cleared, or cleared by the valid copy that always extracts
// first, priorities being decreasing-only).
//
// The slab is first scattered into per-lane segments, and each lane drains
// its segment plus the entire cascade it triggers before the next lane
// starts. Lanes never write each other's planes, so the reordering is
// inert; what it buys is locality — the hot working set of a drain is one
// lane's wavefront band instead of k interleaved planes, and the lane's
// dist slice and updater hoist out of the per-id loop.
//
// Each cascade drains FIFO: a pushed id is swept only after everything
// queued before it, giving in-flight improvements time to land — a LIFO
// stack here triples the relaxation count by expanding non-final
// priorities depth-first.
func (t *laneTrav) relax(bid, curPrio int64, ids []uint32) ([]uint32, bool, bool) {
	if t.ctl.checkpoint(PhaseRelaxChunk, 0) {
		return nil, false, t.ctl.aborted() != abortNone
	}
	r := t.r
	g := r.mo.G
	state := r.state
	off := g.Off
	adj := g.Neigh
	allWts := g.Wts
	nLog := r.nLog
	vMask := uint32(r.nPad - 1)
	k := r.k

	part := ids
	cnt := t.cnt
	if k == 1 {
		cnt[0], cnt[1] = 0, len(ids)
	} else {
		for l := 0; l <= k; l++ {
			cnt[l] = 0
		}
		for _, id := range ids {
			cnt[int(id>>nLog)+1]++
		}
		for l := 0; l < k; l++ {
			cnt[l+1] += cnt[l]
		}
		if cap(t.part) < len(ids) {
			t.part = make([]uint32, len(ids))
		}
		part = t.part[:len(ids)]
		pos := t.pos
		copy(pos, cnt[:k])
		for _, id := range ids {
			l := int(id >> nLog)
			part[pos[l]] = id
			pos[l]++
		}
	}

	casc := t.casc[:0]
	for l := 0; l < k; l++ {
		seg := part[cnt[l]:cnt[l+1]]
		if len(seg) == 0 {
			continue
		}
		dist := r.mo.Lanes[l]
		u := t.ups[l]
		var proc, rlx int64
		casc = casc[:0]
		fi, ci := 0, 0
		for {
			var id uint32
			if fi < len(seg) {
				id = seg[fi]
				fi++
			} else if ci < len(casc) {
				id = casc[ci]
				ci++
			} else {
				break
			}
			if state[id] == 0 {
				continue // stale or duplicate copy
			}
			state[id] = 0 // consume
			lBase := id &^ vMask
			v := id & vMask
			p := dist[v]
			o0, o1 := off[v], off[v+1]
			neigh := adj[o0:o1]
			proc++
			rlx += int64(len(neigh))
			if allWts == nil {
				for _, d := range neigh {
					if old := dist[d]; p < old {
						dist[d] = p
						j := lBase | d
						nb := r.bucketOfP(p)
						tag := bucketTag(nb)
						if state[j] == tag {
							continue
						}
						state[j] = tag
						if nb == bid {
							casc = append(casc, j)
						} else {
							t.lz.Insert(j, nb)
						}
					}
				}
				continue
			}
			wts := allWts[o0:o1]
			wts = wts[:len(neigh)]
			for i, d := range neigh {
				np := p + int64(wts[i])
				if old := dist[d]; np < old {
					dist[d] = np
					j := lBase | d
					nb := r.bucketOfP(np)
					tag := bucketTag(nb)
					if state[j] == tag {
						continue
					}
					state[j] = tag
					if nb == bid {
						casc = append(casc, j)
					} else {
						t.lz.Insert(j, nb)
					}
				}
			}
		}
		u.processed += proc
		u.relaxations += rlx
	}
	t.casc = casc[:0]
	// Split this round's counters by lane before engine.fold zeroes them.
	for l, u := range t.ups {
		t.laneRelax[l] += u.relaxations
		t.laneProc[l] += u.processed
	}
	return nil, false, t.ctl.aborted() != abortNone
}
