// Package parallel provides the bounded-worker primitive shared by the
// pipeline's concurrent stages: the crawler's in-poll fetch fan-out, the
// classifier's batch scoring, the monitor's due-account sweep, and the
// study's per-document worker pool.
//
// The contract that keeps parallel runs bit-identical to sequential ones is
// deliberately narrow: ForEach promises nothing about execution order, so
// callers write result i into slot i of a pre-sized slice and then commit
// the slots in deterministic order on the calling goroutine. All shared
// mutation lives in the ordered commit, never in the workers.
//
// Workers claim indices from a shared atomic counter (see ForEachWorker)
// rather than receiving them over a channel: a send to a parked worker
// readies it on the sender's own processor, so the caller and its workers
// take turns on one core while the others idle, and two workers on two
// cores measured no faster than one.
package parallel

import (
	"sync"
	"sync/atomic"
)

// ForEach invokes fn(i) for every i in [0, n), running at most workers
// calls concurrently. workers <= 1 (or n <= 1) degrades to a plain loop on
// the calling goroutine, guaranteeing behaviour identical to the
// pre-concurrency code path — which is why every Concurrency/Parallelism
// knob in this repo treats 1 as "fully sequential".
func ForEach(n, workers int, fn func(int)) {
	ForEachWorker(n, workers, func(_, i int) { fn(i) })
}

// Workers returns the effective worker count ForEach and ForEachWorker use
// for n items: workers clamped to n, with anything <= 1 meaning one
// (sequential). Callers sizing per-worker scratch allocate exactly this
// many slots.
func Workers(n, workers int) int {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return 1
	}
	return workers
}

// ForEachWorker is ForEach for callers that keep per-worker scratch state:
// fn receives a stable worker id in [0, Workers(n, workers)) alongside the
// item index, and no two concurrent calls share a worker id — so fn may
// freely reuse scratch[w] without locks. The sequential degradation rule is
// ForEach's: one worker, id 0, on the calling goroutine.
//
// With two or more workers, each worker goroutine claims its next index by
// advancing a shared counter and stops once the counter passes n; fn never
// runs on the calling goroutine, which returns only after every worker has
// exited. Items are claimed one at a time: an item costs microseconds and
// a contended atomic add tens of nanoseconds, so batching claims would
// only unbalance the tail.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	workers = Workers(n, workers)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
