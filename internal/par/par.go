// Package par holds the tiny worker-pool primitives shared by the parallel
// phases of the synthesis flow (clustering, DP insertion, corner sign-off,
// partitioned regions, DSE sweeps).
//
// Every parallel loop in this codebase is designed so that its result is a
// pure function of its inputs — never of the schedule — so a caller may pick
// any worker count (including 1) and obtain bit-identical output. The
// helpers here only distribute work; they deliberately carry no per-item
// state of their own.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// N resolves a Workers option: values <= 0 mean "use every available CPU"
// (runtime.GOMAXPROCS), anything else is taken literally.
func N(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) using the given number of
// workers. Iterations must be independent: fn must not mutate state shared
// with another index except through disjoint writes (e.g. out[i] = ...).
// With workers <= 1 the loop runs inline on the calling goroutine, with no
// goroutine or channel overhead.
func ForEach(workers, n int, fn func(i int)) {
	workers = N(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Chunks splits [0, n) into contiguous chunks of the given size and runs
// fn(lo, hi) for each on the given number of workers. Chunk boundaries
// depend only on n and chunk — never on the worker count — so per-chunk
// partial results can be merged in chunk order to give schedule-independent
// (and therefore worker-count-independent) floating-point sums.
func Chunks(workers, n, chunk int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	ForEach(workers, nChunks, func(c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}
