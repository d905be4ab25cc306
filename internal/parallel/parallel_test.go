package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// testWorkers is the worker count of the executors these tests build.
const testWorkers = 4

func TestForCoversAllIndices(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		hits := make([]int32, n)
		e.For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d hit %d times", n, i, h)
			}
		}
	}
}

func TestForChunksWorkerIDsInRange(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	var bad atomic.Int64
	e.ForChunks(10000, 16, func(lo, hi, worker int) {
		if worker < 0 || worker >= testWorkers {
			bad.Add(1)
		}
		if lo >= hi {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d chunk calls had out-of-range workers or empty ranges", bad.Load())
	}
}

func TestForStaticPartitionsDisjointly(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	n := 1001
	hits := make([]int32, n)
	e.ForStatic(n, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d covered %d times", i, h)
		}
	}
}

func TestRunExecutesEveryWorkerOnce(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	var mu sync.Mutex
	seen := map[int]int{}
	e.Run(func(worker int) {
		mu.Lock()
		seen[worker]++
		mu.Unlock()
	})
	if len(seen) != testWorkers {
		t.Fatalf("saw %d workers, want %d", len(seen), testWorkers)
	}
	for w, c := range seen {
		if c != 1 {
			t.Errorf("worker %d ran %d times", w, c)
		}
	}
}

func TestPrefixSumMatchesSerial(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	f := func(xs []int64) bool {
		a := make([]int64, len(xs))
		copy(a, xs)
		bSlice := make([]int64, len(xs))
		copy(bSlice, xs)
		gotTotal := e.PrefixSum(a)
		var sum int64
		for i, x := range bSlice {
			bSlice[i] = sum
			sum += x
		}
		if gotTotal != sum {
			return false
		}
		for i := range a {
			if a[i] != bSlice[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPrefixSumLargeParallel(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	n := 1 << 16
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i % 7)
	}
	var want int64
	wantAt := make([]int64, n)
	for i := range xs {
		wantAt[i] = want
		want += xs[i]
	}
	got := e.PrefixSum(xs)
	if got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	for i := range xs {
		if xs[i] != wantAt[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, xs[i], wantAt[i])
		}
	}
}

func TestPackU32KeepsOrderAndMembers(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	f := func(xs []uint32) bool {
		keep := func(i int) bool { return xs[i]%3 == 0 }
		got := e.PackU32(xs, keep)
		var want []uint32
		for i, x := range xs {
			if keep(i) {
				want = append(want, x)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIotaU32(t *testing.T) {
	e := NewExecutor(testWorkers)
	defer e.Close()
	xs := e.IotaU32(1000)
	for i, x := range xs {
		if x != uint32(i) {
			t.Fatalf("iota[%d] = %d", i, x)
		}
	}
}
