// Package arena provides the scratch-memory building blocks of the numeric
// core: growable flat buffers (Grow/GrowZero) for struct-of-arrays lanes,
// typed bump allocators (Slab) and concurrency-safe free lists (Pool).
//
// The contract, in one paragraph: these hold SCRATCH ONLY. Nothing reachable
// from a phase's public result may alias scratch memory — results are
// allocated fresh and escape to the caller. Each phase package keeps its
// scratch in package-level Pools, shared by every job, size and concurrent
// region; a checked-out scratch is used by one invocation at a time and
// returned when it finishes. Reset never shrinks and never frees; it only rewinds
// offsets, so a recycled scratch reaches a fixed point where steady-state
// runs allocate almost nothing. Because every value read out of scratch is
// (re)written before use on each run, recycling cannot change any numeric
// result: the golden C1..C5 and workers-1-vs-N determinism suites pin that,
// and TestPackagePoolsAcrossSizes in internal/core re-checks it under the
// race detector.
package arena

import "sync"

// Grow returns s with length n, reusing capacity when possible. Contents are
// unspecified (stale values from a previous use may be visible); callers must
// fully overwrite before reading. Use GrowZero when zeroed memory is needed.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	return make([]T, n, c)
}

// GrowZero returns s with length n and all elements set to the zero value.
func GrowZero[T any](s []T, n int) []T {
	s = Grow(s, n)
	clear(s)
	return s
}

// Slab is a typed bump allocator. Take hands out zeroed slices carved from
// large chunks; Reset rewinds the slab so the chunks are reused. Slices
// returned by Take stay valid (never moved, never handed to anyone else)
// until the next Reset; after Reset their contents may be overwritten by new
// Take calls, so no slice may be retained across a Reset. Take uses three-
// index slice expressions, so appending to a taken slice reallocates instead
// of silently aliasing the neighbour allocation.
type Slab[T any] struct {
	chunks [][]T
	cur    int // index of the chunk Take is carving from
	off    int // fill offset within chunks[cur]
	// next chunk size; doubles as the slab grows so arbitrarily sized jobs
	// settle in O(log n) chunk allocations.
	chunkSize int
}

// minChunk is the smallest chunk a Slab allocates, in elements.
const minChunk = 1024

// Take returns a zeroed slice of length n backed by the slab.
func (s *Slab[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	for s.cur < len(s.chunks) {
		c := s.chunks[s.cur]
		if len(c)-s.off >= n {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			clear(out)
			return out
		}
		s.cur++
		s.off = 0
	}
	// Out of capacity: grow with a fresh chunk large enough for n.
	if s.chunkSize < minChunk {
		s.chunkSize = minChunk
	}
	for s.chunkSize < n {
		s.chunkSize *= 2
	}
	c := make([]T, s.chunkSize)
	s.chunkSize *= 2
	s.chunks = append(s.chunks, c)
	s.cur = len(s.chunks) - 1
	out := c[0:n:n]
	s.off = n
	return out
}

// Reset rewinds the slab; all previously taken slices are dead and their
// backing memory will be handed out again.
func (s *Slab[T]) Reset() {
	s.cur = 0
	s.off = 0
}

// Cap returns the total element capacity across all chunks (for tests and
// metrics).
func (s *Slab[T]) Cap() int {
	total := 0
	for _, c := range s.chunks {
		total += len(c)
	}
	return total
}

// Pool is a concurrency-safe free list of *T scratch objects. Unlike
// sync.Pool it never drops entries under GC pressure, which is what makes
// the steady-state allocation counts of recycled scratch reproducible in
// benchmarks.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get pops a previously Put object, or returns nil when the pool is empty
// (the caller allocates a fresh one).
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return nil
}

// Put returns an object to the pool. The object must not be used after Put.
func (p *Pool[T]) Put(x *T) {
	if x == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}
