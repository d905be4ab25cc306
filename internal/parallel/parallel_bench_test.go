package parallel

import "testing"

// Micro-benchmarks for the parallel substrate: loop dispatch, parallel
// region joins (the per-round synchronization cost that bucket fusion
// eliminates), and scans.

func BenchmarkForChunksDispatch(b *testing.B) {
	e := NewExecutor(0)
	defer e.Close()
	var sink int64
	for i := 0; i < b.N; i++ {
		e.ForChunks(1<<12, 64, func(lo, hi, _ int) {
			s := int64(0)
			for j := lo; j < hi; j++ {
				s += int64(j)
			}
			sink += s
		})
	}
	_ = sink
}

// BenchmarkRunJoin measures one pooled parallel region: dispatch to the
// parked workers plus the join, the per-round synchronization a fused
// eager round avoids.
func BenchmarkRunJoin(b *testing.B) {
	e := NewExecutor(4)
	defer e.Close()
	body := func(worker int) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(body)
	}
}

func BenchmarkPrefixSum(b *testing.B) {
	xs := make([]int64, 1<<16)
	for i := range xs {
		xs[i] = int64(i % 7)
	}
	scratch := make([]int64, len(xs))
	e := NewExecutor(0)
	defer e.Close()
	b.SetBytes(int64(len(xs) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, xs)
		e.PrefixSum(scratch)
	}
}

func BenchmarkPackU32(b *testing.B) {
	e := NewExecutor(0)
	defer e.Close()
	xs := e.IotaU32(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.PackU32(xs, func(i int) bool { return xs[i]%3 == 0 })
	}
}
