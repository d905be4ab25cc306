package core

import (
	"graphit/internal/atomicutil"
	"graphit/internal/bucket"
	"graphit/internal/graph"
)

// Updater is the runtime face of the DSL's priority-update operators
// (paper Table 1): updatePriorityMin, updatePriorityMax, updatePrioritySum.
// One Updater is owned by each worker; the engine wires it to the schedule's
// bucket sink (thread-local bins for eager, a deduplicated buffer for lazy)
// and decides whether updates must be atomic (SparsePush) or not (DensePull,
// where each destination is owned by one worker — paper Figure 9(b)).
type Updater struct {
	o       *Ordered
	atomics bool
	curBin  int64 // bucket being processed; floor for eager inserts
	curPrio int64 // priority of the current bucket (curBin * ∆)

	// sink, when set, overrides all other sinks (used by the relaxed /
	// approximate-ordering engine that models Galois).
	sink func(v graph.VertexID, newPrio int64)
	// Eager sink: the owning worker's local bins.
	bins *bucket.LocalBins
	// Lazy SparsePush sink: per-worker output buffer + global dedup flags.
	out   []uint32
	dedup *atomicutil.Flags
	// Lazy DensePull sink: dense changed map.
	next []bool
	// Multi-source lanes: pend, when set, is the run's shared per-vertex
	// pending-lane bitmask and laneBit this updater's lane. A winning update
	// marks the lane pending at v, so the consume loop and the bucket keyer
	// scan only lanes with real work instead of all k.
	pend    []uint64
	laneBit uint64

	// Per-worker counters, folded into Stats after each parallel phase.
	relaxations int64
	inversions  int64
	processed   int64
	fused       int64
}

// GetCurrentPriority returns the priority of the bucket being processed —
// the DSL's pq.getCurrentPriority() (e.g. the current core k in k-core).
func (u *Updater) GetCurrentPriority() int64 { return u.curPrio }

// FinishedVertex reports whether v has been finalized — the DSL's
// pq.finishedVertex(v).
func (u *Updater) FinishedVertex(v graph.VertexID) bool {
	return u.o.fin != nil && u.o.fin.IsSet(v)
}

// Priority returns v's current priority with an atomic read; user-defined
// functions must use it instead of reading the priority vector directly in
// parallel contexts.
func (u *Updater) Priority(v graph.VertexID) int64 {
	return atomicutil.Load(&u.o.Prio[v])
}

// minPlus reports whether push sweeps may replace Apply with the engine's
// inlined min-plus kernel for this updater: the operator declares
// RelaxMinPlus, and nothing Apply's path would add is in play — no
// finalized-vertex filter, no relaxed-engine sink, no multi-source lane
// marks, and the round writes priorities atomically (push, not pull).
func (u *Updater) minPlus() bool {
	o := u.o
	return o.RelaxMinPlus && o.fin == nil && u.sink == nil && u.pend == nil && u.atomics
}

// record routes a successful priority change of v (new coarsened value p)
// into the schedule's bucket sink.
func (u *Updater) record(v graph.VertexID, newPrio int64) {
	if u.pend != nil {
		atomicutil.OrU64(&u.pend[v], u.laneBit)
	}
	o := u.o
	switch {
	case u.sink != nil: // relaxed engine
		u.sink(v, newPrio)
	case u.bins != nil: // eager
		b := o.bucketOf(newPrio)
		if b < u.curBin {
			b = u.curBin
			u.inversions++
		}
		u.bins.Insert(b, v)
	case u.next != nil: // lazy DensePull
		u.next[v] = true
	default: // lazy SparsePush; dedup is nil when configDeduplication is off
		if u.dedup == nil || u.dedup.TrySet(v) {
			u.out = append(u.out, v)
		}
	}
}

// UpdatePriorityMin lowers v's priority to newPrio if it improves it, and
// reports whether the update won. Only valid on lower_first queues.
func (u *Updater) UpdatePriorityMin(v graph.VertexID, newPrio int64) bool {
	o := u.o
	if o.fin != nil && o.fin.IsSet(v) {
		return false
	}
	var won bool
	if u.atomics {
		won = atomicutil.WriteMin(&o.Prio[v], newPrio)
	} else if newPrio < atomicutil.Load(&o.Prio[v]) {
		// Pull direction: v is owned by this worker, so no CAS retry loop
		// is needed — but other workers may concurrently read v as a
		// source, so the write itself must still be atomic.
		atomicutil.Store(&o.Prio[v], newPrio)
		won = true
	}
	if won {
		u.record(v, newPrio)
	}
	return won
}

// UpdatePriorityMax raises v's priority to newPrio if it improves it, and
// reports whether the update won. Only valid on higher_first queues.
func (u *Updater) UpdatePriorityMax(v graph.VertexID, newPrio int64) bool {
	o := u.o
	if o.fin != nil && o.fin.IsSet(v) {
		return false
	}
	var won bool
	if u.atomics {
		won = atomicutil.WriteMax(&o.Prio[v], newPrio)
	} else if newPrio > atomicutil.Load(&o.Prio[v]) {
		atomicutil.Store(&o.Prio[v], newPrio)
		won = true
	}
	if won {
		u.record(v, newPrio)
	}
	return won
}

// UpdatePrioritySum adds delta to v's priority, clamped so it never crosses
// floor, and reports whether the priority changed (paper Table 1's
// updatePrioritySum with min_threshold).
func (u *Updater) UpdatePrioritySum(v graph.VertexID, delta, floor int64) bool {
	o := u.o
	if o.fin != nil && o.fin.IsSet(v) {
		return false
	}
	var changed bool
	if u.atomics {
		_, changed = atomicutil.AddClamped(&o.Prio[v], delta, floor)
	} else {
		old := atomicutil.Load(&o.Prio[v])
		next := old + delta
		if next < floor {
			next = floor
		}
		if next != old {
			atomicutil.Store(&o.Prio[v], next)
			changed = true
		}
	}
	if changed {
		u.record(v, atomicutil.Load(&o.Prio[v]))
	}
	return changed
}
