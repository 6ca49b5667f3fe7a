package parallel

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"doxmeter/internal/leakcheck"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 4, 100} {
		const n = 257
		var hits [n]int32
		ForEach(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForEachSequentialOrder(t *testing.T) {
	// workers <= 1 must be a plain in-order loop on the caller's goroutine.
	var order []int
	ForEach(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential ForEach visited %v", order)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var active, peak int32
	ForEach(64, workers, func(int) {
		a := atomic.AddInt32(&active, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if a <= p || atomic.CompareAndSwapInt32(&peak, p, a) {
				break
			}
		}
		atomic.AddInt32(&active, -1)
	})
	if p := atomic.LoadInt32(&peak); p > workers {
		t.Fatalf("observed %d concurrent calls, limit %d", p, workers)
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	if called {
		t.Fatal("fn called with n=0")
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{10, 0, 1},
		{10, -3, 1},
		{10, 1, 1},
		{10, 4, 4},
		{3, 8, 3},
		{0, 8, 1},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.workers); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

func TestForEachWorkerCoversAllIndices(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 4, 100} {
		const n = 257
		var hits [n]int32
		maxWorker := int32(-1)
		ForEachWorker(n, workers, func(w, i int) {
			atomic.AddInt32(&hits[i], 1)
			for {
				m := atomic.LoadInt32(&maxWorker)
				if int32(w) <= m || atomic.CompareAndSwapInt32(&maxWorker, m, int32(w)) {
					break
				}
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
		if limit := int32(Workers(n, workers)); atomic.LoadInt32(&maxWorker) >= limit {
			t.Fatalf("workers=%d: worker id %d out of range [0,%d)", workers, maxWorker, limit)
		}
	}
}

func TestForEachWorkerSequential(t *testing.T) {
	// workers <= 1 runs in order on the caller's goroutine with worker id 0.
	var order []int
	ForEachWorker(5, 1, func(w, i int) {
		if w != 0 {
			t.Fatalf("sequential worker id %d", w)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential ForEachWorker visited %v", order)
		}
	}
}

func TestForEachWorkerExclusiveIDs(t *testing.T) {
	// No two concurrent calls may share a worker id: worker-pinned scratch
	// relies on it. Flag any overlap with a per-worker busy bit.
	const workers = 4
	busy := make([]int32, workers)
	ForEachWorker(200, workers, func(w, _ int) {
		if !atomic.CompareAndSwapInt32(&busy[w], 0, 1) {
			t.Errorf("worker id %d used concurrently", w)
		}
		atomic.StoreInt32(&busy[w], 0)
	})
}

// TestForEachWorkerRunsConcurrently: with two workers and two items, both
// calls are in flight at once. Each call marks itself started and then
// waits for the other to start, so a pool that runs the calls one after
// another fails here instead of only getting slower.
func TestForEachWorkerRunsConcurrently(t *testing.T) {
	started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	ForEachWorker(2, 2, func(_, i int) {
		close(started[i])
		select {
		case <-started[1-i]:
		case <-time.After(5 * time.Second):
			t.Errorf("item %d ran for 5s without item %d starting", i, 1-i)
		}
	})
}

// TestForEachWorkerLeavesNoGoroutines: every worker goroutine exits once
// ForEachWorker returns, whether there are fewer items than workers, as
// many, or far more.
func TestForEachWorkerLeavesNoGoroutines(t *testing.T) {
	const workers = 4
	for _, n := range []int{2, workers, 1000} {
		settle := leakcheck.Mark(t)
		ForEachWorker(n, workers, func(int, int) {})
		settle()
	}
}

// spin is a fixed CPU cost of a few microseconds, the order of one
// document's fetch or prepare work.
func spin(seed uint64) uint64 {
	x := seed | 1
	for k := 0; k < 1500; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// paddedSlot keeps each worker's accumulator on a cache line of its own,
// so the benchmark measures the pool, not false sharing between workers.
type paddedSlot struct {
	v uint64
	_ [56]byte
}

var benchSink uint64

// BenchmarkForEachWorker runs 250 items of fixed CPU work, the size of one
// pastebin listing page, through one and two workers. ns/item is wall time
// per item: at two workers on two idle cores it should be about half the
// one-worker figure.
func BenchmarkForEachWorker(b *testing.B) {
	const items = 250
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			slots := make([]paddedSlot, workers)
			b.ResetTimer()
			for r := 0; r < b.N; r++ {
				ForEachWorker(items, workers, func(w, i int) {
					slots[w].v += spin(uint64(i))
				})
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
			for _, s := range slots {
				benchSink += s.v
			}
		})
	}
}
