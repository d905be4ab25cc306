package bucket

// LocalBins is one worker's thread-local bucket array for the eager engine,
// mirroring the `vector<vector<uint>> local_bins` of the paper's generated
// eager code (Figure 9(c)). Bins are indexed directly by bucket id (eager
// ordering is Increasing only, matching GAPBS) and grown on demand.
//
// A LocalBins is owned by exactly one worker; no synchronization is needed
// for Insert. The eager engine coordinates workers only at round barriers
// and when copying bins into the shared global frontier.
//
// Emptied bin buffers are handed back with Recycle and reused by the next
// Insert into an empty bin, so a warmed eager round loop (and every fused
// iteration) re-fills existing backing arrays instead of growing new ones
// from nil. The free list retains at most maxFreeBytes.
type LocalBins struct {
	bins [][]uint32
	// free holds recycled, zero-length bin buffers; freeBytes is their
	// total capacity in bytes.
	free      [][]uint32
	freeBytes int
	// Inserts counts bucket insertions by this worker. Unlike the lazy
	// approach, the eager approach may insert the same vertex several times
	// per round (paper §3.2); this counter exposes that cost.
	Inserts int64
}

// maxFreeBytes caps the buffer capacity one LocalBins keeps on its free
// list; a recycled buffer that would exceed it is dropped to the GC.
const maxFreeBytes = 1 << 20

// Insert appends v to bin b, growing the bin array as needed.
func (lb *LocalBins) Insert(b int64, v uint32) {
	if b < 0 {
		b = 0
	}
	for int64(len(lb.bins)) <= b {
		lb.bins = append(lb.bins, nil)
	}
	bin := lb.bins[b]
	if bin == nil && len(lb.free) > 0 {
		last := len(lb.free) - 1
		bin = lb.free[last]
		lb.free[last] = nil
		lb.free = lb.free[:last]
		lb.freeBytes -= 4 * cap(bin)
	}
	lb.bins[b] = append(bin, v)
	lb.Inserts++
}

// MinNonEmpty returns the smallest bin id >= from that is non-empty, or
// NullBkt if none. Each worker proposes this value at the end of a round and
// the engine takes the global minimum (paper Figure 6, line 8).
func (lb *LocalBins) MinNonEmpty(from int64) int64 {
	if from < 0 {
		from = 0
	}
	for b := from; b < int64(len(lb.bins)); b++ {
		if len(lb.bins[b]) > 0 {
			return b
		}
	}
	return NullBkt
}

// Take removes and returns bin b's contents (nil if empty or out of range).
// Once the caller is done with the slice it may hand it back with Recycle.
func (lb *LocalBins) Take(b int64) []uint32 {
	if b < 0 || b >= int64(len(lb.bins)) {
		return nil
	}
	out := lb.bins[b]
	lb.bins[b] = nil
	return out
}

// Recycle returns a buffer obtained from Take to the free list for reuse by
// a later Insert. The caller must not touch buf afterwards.
func (lb *LocalBins) Recycle(buf []uint32) {
	c := cap(buf)
	if c == 0 || lb.freeBytes+4*c > maxFreeBytes {
		return
	}
	lb.free = append(lb.free, buf[:0])
	lb.freeBytes += 4 * c
}

// Len returns the size of bin b without removing it.
func (lb *LocalBins) Len(b int64) int {
	if b < 0 || b >= int64(len(lb.bins)) {
		return 0
	}
	return len(lb.bins[b])
}

// Reset clears all bins (for structure reuse across runs), recycling the
// buffers of bins a stopped run left non-empty.
func (lb *LocalBins) Reset() {
	for i, bin := range lb.bins {
		if bin != nil {
			lb.Recycle(bin)
			lb.bins[i] = nil
		}
	}
	lb.Inserts = 0
}
