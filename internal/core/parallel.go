package core

import (
	"sync"
	"sync/atomic"
)

// parallelForWorkers runs fn(worker, i) for i in 0..n-1 across at most
// workers goroutines, with worker in [0, min(workers, n)). With
// workers ≤ 1 (or a single item) it degenerates to a plain loop on the
// calling goroutine, so serial and parallel paths share one body.
// Iterations must be independent; callers keep determinism by writing
// results into index-addressed slots and merging in index order after
// the barrier. Work-stealing makes the worker→item assignment
// nondeterministic, so the worker index must only select scratch state
// whose contents are fully overwritten per item — never influence
// result values.
func parallelForWorkers(n, workers int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
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
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// parallelChunksWorkers splits [0, n) into one contiguous chunk per
// worker and runs fn(worker, lo, hi) for each non-empty chunk, chunk w
// on worker w. Unlike the work-stealing parallelForWorkers, the
// worker→range assignment is static and deterministic — the shape the
// batched SpectrumManyInto stage wants, since a worker amortizes plan
// lookups and table touches across its whole contiguous slice. Results
// must be index-addressed for determinism, as with parallelForWorkers.
func parallelChunksWorkers(n, workers int, fn func(worker, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, 0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		go func(w, lo, hi int) {
			defer wg.Done()
			if lo < hi {
				fn(w, lo, hi)
			}
		}(w, lo, hi)
	}
	wg.Wait()
}
