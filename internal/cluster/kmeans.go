// Package cluster implements the dual-level sink clustering of the paper's
// hierarchical clock routing (Sec. III-B): k-means++ seeded Lloyd iterations
// with a capacity-balancing refinement, applied twice — high-level clusters
// of target size Hc (3000 in the paper) and, within each, low-level clusters
// of target size Lc (30). Centroids of both levels are recorded for the
// hierarchical DME step and for skew-refinement buffer sites.
//
// The Lloyd assignment step — the hot loop of the whole synthesis flow — is
// accelerated five ways, none of which changes the result:
//
//   - a spatial grid over the centroids answers exact nearest-centroid
//     queries by ring search instead of the naive O(k) scan (see grid.go);
//   - Hamerly-style bounds skip most of those queries. Every point keeps an
//     upper bound u on the distance to its own centroid and a lower bound l
//     on the distance to every other centroid; after each centroid update u
//     grows by its centroid's drift and l shrinks by the largest drift
//     (triangle inequality). A point whose u stays below l keeps its
//     centroid without a search; otherwise u is tightened to the exact
//     distance and tested again before the search runs. On the grid, l
//     is raised to half the point's centroid's separation from the
//     nearest other centroid when that is larger (Hamerly's separation
//     test; the grid yields the separations once per pass). The test
//     demands a strict win by a margin (see settled) far above any
//     rounding in the bounds or in the squared-distance comparison, so a
//     skipped point's centroid is strictly nearest and the lowest-index
//     tie rule never applies to it: a point at a tie always takes the
//     search;
//   - the first pass takes its assignment and both bounds from the
//     k-means++ seeding, which has already computed every point's squared
//     distance to every seed with the search's expression and its
//     strict-< (lowest index wins) tie rule;
//   - the per-point assignment loop is sharded across a worker pool
//     (Options.Workers). Assignments are pure per-point functions of the
//     centroid set and the point's own bounds, and centroid updates are
//     accumulated sequentially, so any worker count produces bit-identical
//     clusterings;
//   - all inner loops run over flat struct-of-arrays x/y float64 slices held
//     in reusable scratch (kmScratch) instead of []geom.Point, so a whole
//     Lloyd run allocates nothing after the first invocation warms the
//     scratch. The scratch comes from one package-level pool shared by
//     every call, whatever its size or caller.
//
// The bounded path's k-means++ seeding also draws each seed by a binary
// search over running sums of the distance field, which its update pass
// stores, instead of rescanning the field (see seedPlusPlus).
//
// Options.Brute keeps the reference path — a full O(k) scan for every point
// in every pass, with no grid, no bounds, no seed-derived first pass and a
// scanning sampler — so the accelerated path can be checked against it.
//
// Iterations also stop as soon as the centroid set reaches a fixed point
// (exact equality), which skips the trailing no-op assignment passes of a
// fixed iteration budget.
package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"dscts/internal/arena"
	"dscts/internal/geom"
	"dscts/internal/par"
)

// Result is one clustering solution.
type Result struct {
	// Assign maps each input point index to its cluster id in [0,K).
	Assign []int
	// Centroids holds one centroid per cluster.
	Centroids []geom.Point
	// Members lists the point indices of each cluster.
	Members [][]int
	// Work counts the Lloyd effort behind the solution.
	Work Work
}

// Work counts the effort of the Lloyd runs behind a clustering. Every count
// is a function of the input and the options other than Workers, so it
// repeats exactly on any host and at any worker count.
type Work struct {
	// Iterations is the number of Lloyd assignment passes.
	Iterations int
	// Assignments is the number of point assignments those passes made: n
	// per pass.
	Assignments int
	// Searches is the number of nearest-centroid searches (grid ring walk
	// or brute scan) among those assignments. The rest were settled by the
	// bounds or taken from the seeding; Brute runs search every one.
	Searches int
}

func (w *Work) add(o Work) {
	w.Iterations += o.Iterations
	w.Assignments += o.Assignments
	w.Searches += o.Searches
}

// K returns the number of clusters.
func (r *Result) K() int { return len(r.Centroids) }

// Options controls KMeans.
type Options struct {
	// TargetSize is the desired cluster size; K = ceil(N/TargetSize).
	TargetSize int
	// MaxIter bounds Lloyd iterations.
	MaxIter int
	// Seed makes runs deterministic.
	Seed int64
	// Balance enables the capacity refinement pass that caps cluster size
	// at ceil(1.25·TargetSize), moving overflow points to their next
	// nearest non-full cluster. This keeps low-level clusters within the
	// leaf-net fanout bound.
	Balance bool
	// Workers shards the assignment loop; <= 0 means all CPUs. The result
	// is identical for every worker count.
	Workers int
	// Brute runs the reference path: every pass scans all k centroids for
	// every point, with neither the spatial grid nor the bounds nor the
	// seed-derived first pass. Those accelerators are exact, so this only
	// exists for benchmarking and cross-checking them.
	Brute bool
}

// kmScratch holds every transient buffer of one KMeans invocation in flat
// struct-of-arrays form. It is reused across invocations via kmPool; every
// field is fully (re)written before it is read, so reuse cannot affect
// results.
type kmScratch struct {
	xs, ys   []float64 // flattened input points
	cxs, cys []float64 // centroids
	pxs, pys []float64 // previous-iteration centroids
	sxs, sys []float64 // recompute accumulators
	cnt      []int
	d2       []float64 // k-means++ distance field
	pre      []float64 // bounded runs: running sums of d2, the sampler's index
	assign   []int
	chunks   []chunkStat
	// Bounded runs only (see settled): per point, an upper bound on the
	// distance to its own centroid and a lower bound on the distance to
	// every other one; per centroid, how far the last update moved it and
	// half a lower bound on its distance to every other centroid (zero
	// unless the run uses the grid).
	ub, lb   []float64
	drift    []float64
	half     []float64
	maxDrift float64
	slack    float64 // absolute margin of the bound test
	remap    []int
	members  []int // balance: counting-sorted member index backing
	moff     []int
	grid     centGrid
}

// kmPool and subPool recycle the cluster phase's scratch across every call;
// nested and concurrent KMeans calls each check out their own.
var (
	kmPool  arena.Pool[kmScratch]
	subPool arena.Pool[subBuf]
)

// subBuf stages the point subset handed to a nested KMeans call.
type subBuf struct {
	pts []geom.Point
}

// KMeans clusters pts into ceil(len(pts)/TargetSize) groups.
func KMeans(pts []geom.Point, opt Options) (*Result, error) {
	n := len(pts)
	if n == 0 {
		return nil, fmt.Errorf("cluster: no points")
	}
	if opt.TargetSize <= 0 {
		return nil, fmt.Errorf("cluster: target size %d", opt.TargetSize)
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 50
	}
	k := (n + opt.TargetSize - 1) / opt.TargetSize
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	s := kmPool.Get()
	if s == nil {
		s = &kmScratch{}
	}
	defer kmPool.Put(s)

	s.xs = arena.Grow(s.xs, n)
	s.ys = arena.Grow(s.ys, n)
	for i, p := range pts {
		s.xs[i] = p.X
		s.ys[i] = p.Y
	}
	work := lloyd(s, n, k, opt)
	if opt.Balance {
		balance(s, n, k, opt.TargetSize)
		recompute(s, n, k)
	}
	res := buildResult(s, n, k)
	res.Work = work
	return res, nil
}

// lloyd runs the k-means++ seeding and the Lloyd iteration loop entirely in
// scratch, leaving the final assignment in s.assign[:n] and the centroids in
// s.cxs/s.cys[:k]. It is shared by KMeans and the allocation-free bisect
// entry of the cap-aware splitter.
func lloyd(s *kmScratch, n, k int, opt Options) Work {
	s.cxs = arena.Grow(s.cxs, k)
	s.cys = arena.Grow(s.cys, k)
	s.pxs = arena.Grow(s.pxs, k)
	s.pys = arena.Grow(s.pys, k)
	s.sxs = arena.Grow(s.sxs, k)
	s.sys = arena.Grow(s.sys, k)
	s.cnt = arena.Grow(s.cnt, k)
	s.assign = arena.GrowZero(s.assign, n)
	s.chunks = arena.Grow(s.chunks, (n+assignChunk-1)/assignChunk)
	bounded := !opt.Brute && s.boundsExact(n, opt.MaxIter)
	if bounded {
		s.ub = arena.Grow(s.ub, n)
		s.lb = arena.Grow(s.lb, n)
		s.drift = arena.Grow(s.drift, k)
		s.half = arena.GrowZero(s.half, k)
	}

	// PCG seeding is effectively free, which matters because the
	// cap-aware splitting of the dual-level hierarchy re-enters KMeans
	// hundreds of times on small point sets.
	rng := rand.New(rand.NewPCG(uint64(opt.Seed), 0x9e3779b97f4a7c15))
	seedPlusPlus(s, n, k, rng, bounded)
	workers := par.N(opt.Workers)
	useGrid := bounded && s.grid.size(s.cxs, s.cys)
	var work Work
	for iter := 0; iter < opt.MaxIter; iter++ {
		work.Iterations++
		work.Assignments += n
		// A bounded run's first assignment came with the seeding. Whether
		// the first pass changed anything is never read.
		changed := false
		if iter > 0 || !bounded {
			if useGrid {
				s.grid.build(s.cxs, s.cys)
				s.separate(k)
			}
			var searches int
			changed, searches = assignNearest(s, bounded, useGrid, workers)
			work.Searches += searches
		}
		copy(s.pxs, s.cxs)
		copy(s.pys, s.cys)
		recompute(s, n, k)
		if !changed && iter > 0 {
			break
		}
		// Fixed point: if no centroid moved at all, the next assignment
		// pass cannot change anything either — stop early. Exact equality
		// keeps the final (assign, cents) identical to the full loop.
		if centsEqual(s, k) {
			break
		}
		if bounded {
			s.measureDrift(k)
		}
	}
	return work
}

// bisect is the allocation-free twin of KMeans for the cap-aware recursive
// bipartition: TargetSize=(n+1)/2 always yields k=2 for n >= 2, Balance is
// off, and the caller consumes the assignment/centroids straight from the
// returned scratch (which it must hand back to kmPool). The points are
// gathered from sinks through the index list, so the split recursion never
// materializes point subsets. The computation — seeding, iteration, early
// exits — is byte-for-byte the KMeans code path, so the split hierarchy is
// bit-identical to the one the full KMeans entry produced.
func bisect(sinks []geom.Point, idx []int, opt Options) (*kmScratch, Work) {
	n := len(idx)
	if opt.MaxIter <= 0 {
		opt.MaxIter = 50
	}
	s := kmPool.Get()
	if s == nil {
		s = &kmScratch{}
	}
	s.xs = arena.Grow(s.xs, n)
	s.ys = arena.Grow(s.ys, n)
	for i, id := range idx {
		s.xs[i] = sinks[id].X
		s.ys[i] = sinks[id].Y
	}
	return s, lloyd(s, n, 2, opt)
}

func centsEqual(s *kmScratch, k int) bool {
	for c := 0; c < k; c++ {
		if s.pxs[c] != s.cxs[c] || s.pys[c] != s.cys[c] {
			return false
		}
	}
	return true
}

// seedPlusPlus is the k-means++ seeding: spread initial centroids with
// probability proportional to squared distance from the nearest chosen seed.
// It writes the k seeds into s.cxs/s.cys. A bounded run also gets the first
// pass's assignment and bounds from it: the distance field already holds
// every point's squared distance to its nearest seed, computed with the
// search's expression and kept under its strict-< rule, so the lowest index
// wins ties exactly as in a search over the k seeds.
//
// Each draw takes the first point whose running sum of the distance field
// reaches r. The reference path scans for it. A bounded run stores the
// running sums as it rebuilds the field's total (s.pre), with the scan's
// own additions in the scan's order, so pre[i] is exactly the scan's sum at
// i; the field is nonnegative, so pre never decreases and a binary search
// finds the scan's point.
func seedPlusPlus(s *kmScratch, n, k int, rng *rand.Rand, bounded bool) {
	first := rng.IntN(n)
	s.cxs[0] = s.xs[first]
	s.cys[0] = s.ys[first]
	if k == 1 && !bounded {
		// The distance field below only steers the CHOICE of later seeds;
		// with a single centroid it is dead work (the rng is not consulted
		// again), so skipping it cannot change any result.
		return
	}
	s.d2 = arena.Grow(s.d2, n)
	d2 := s.d2
	var pre []float64
	if bounded {
		s.pre = arena.Grow(s.pre, n)
		pre = s.pre[:n]
	}
	var total float64
	for i := 0; i < n; i++ {
		dx, dy := s.xs[i]-s.cxs[0], s.ys[i]-s.cys[0]
		d2[i] = dx*dx + dy*dy
		total += d2[i]
		if bounded {
			pre[i] = total
		}
	}
	if bounded {
		// s.lb holds the squared runner-up distance until the end.
		for i := 0; i < n; i++ {
			s.assign[i] = 0
			s.lb[i] = math.Inf(1)
		}
	}
	for kc := 1; kc < k; kc++ {
		var next int
		if total <= 0 {
			next = rng.IntN(n)
		} else if r := rng.Float64() * total; bounded {
			next = min(sort.Search(n, func(i int) bool { return pre[i] >= r }), n-1)
		} else {
			acc := 0.0
			next = n - 1
			for i, v := range d2 {
				acc += v
				if acc >= r {
					next = i
					break
				}
			}
		}
		cx, cy := s.xs[next], s.ys[next]
		s.cxs[kc] = cx
		s.cys[kc] = cy
		// Tighten the distance field and rebuild its sum in one pass
		// (recomputing rather than decrementing keeps the sum exact).
		total = 0
		if bounded {
			xs, ys, assign, second := s.xs[:n], s.ys[:n], s.assign[:n], s.lb[:n]
			for i, v := range d2 {
				dx, dy := xs[i]-cx, ys[i]-cy
				if w := dx*dx + dy*dy; w < v {
					second[i] = v
					d2[i] = w
					assign[i] = kc
				} else if w < second[i] {
					second[i] = w
				}
				total += d2[i]
				pre[i] = total
			}
			continue
		}
		for i := 0; i < n; i++ {
			dx, dy := s.xs[i]-cx, s.ys[i]-cy
			if v := dx*dx + dy*dy; v < d2[i] {
				d2[i] = v
			}
			total += d2[i]
		}
	}
	if bounded {
		for i := 0; i < n; i++ {
			s.ub[i] = math.Sqrt(d2[i])
			s.lb[i] = math.Sqrt(s.lb[i])
		}
	}
}

// boundRel is the relative margin of the bound test; the absolute margin is
// boundRel times the largest coordinate magnitude.
const boundRel = 0x1p-30

// boundMaxIter caps the passes of a bounded run. Each pass adds at most a
// few ulps of the point set's extent to a bound's rounding error, so 2^16
// passes stay far inside the 2^-30 margin (about 2^23 ulps).
const boundMaxIter = 1 << 16

// boundsExact sets the bound test's absolute margin and reports whether
// the bounded path reproduces the reference exactly for these points;
// lloyd runs the reference path for any input that fails. It does
// whenever the run has at most boundMaxIter passes and the largest
// coordinate magnitude m lies in [2^-400, 2^400]:
// every squared distance then stays clear of overflow, and any gap the
// margin admits (at least 2^-430) squares well above the subnormal range,
// so the rounding of each squared distance stays relative. A NaN
// coordinate makes m NaN and fails the check.
func (s *kmScratch) boundsExact(n, maxIter int) bool {
	m := 0.0
	for i := 0; i < n; i++ {
		m = max(m, math.Abs(s.xs[i]), math.Abs(s.ys[i]))
	}
	s.slack = boundRel * m
	return m >= 0x1p-400 && m <= 0x1p400 && maxIter <= boundMaxIter
}

// settled reports whether the bounds prove a point's centroid strictly
// nearest: u, an upper bound on its distance, beats l, a lower bound on the
// distance to every other centroid, by more than the rounding that the
// bounds' updates, the square roots and the ring bound can hide. The
// relative term covers the distances themselves, and the absolute slack
// (kmScratch.slack) the sums and differences, whose rounding scales with
// the coordinates. A strict win by that margin survives the rounding of
// the squared distances the search would compare, so the search would
// return the same centroid.
//
// The bounded path passes max(l, h) for l, where h = half[a] is half a
// lower bound on the distance from the point's centroid a to every other
// centroid (Hamerly's separation test). That is sound too: by the triangle
// inequality every other centroid lies at least 2h - u from the point, and
// if settled(u, h, slack) holds, 2h - u exceeds u by more than twice the
// margin demanded of l. The rounding of h is relative to the distance
// between two centroids, which the absolute slack covers. A point exactly
// at h, or within the margin of it, still searches.
func settled(u, l, slack float64) bool {
	return u+u*boundRel+slack < l
}

// separate sets half[c] to half a lower bound on centroid c's distance to
// every other centroid, from the grid built over the current centroids. A
// walk from c itself with c as the seed at distance 0 stops once rings 0-1
// are scanned, and its runner-up term is the smaller of the nearest other
// centroid scanned and one cell edge, which every unscanned centroid lies
// beyond. Another centroid at c's position makes the bound 0.
func (s *kmScratch) separate(k int) {
	for c := 0; c < k; c++ {
		_, _, other2 := s.grid.nearest(s.cxs[c], s.cys[c], c, 0)
		s.half[c] = math.Sqrt(other2) / 2
	}
}

// measureDrift records how far each centroid moved in the last update (from
// s.pxs/s.pys to s.cxs/s.cys) and the largest such move.
func (s *kmScratch) measureDrift(k int) {
	s.maxDrift = 0
	for c := 0; c < k; c++ {
		dx, dy := s.cxs[c]-s.pxs[c], s.cys[c]-s.pys[c]
		d := math.Sqrt(dx*dx + dy*dy)
		s.drift[c] = d
		if d > s.maxDrift {
			s.maxDrift = d
		}
	}
}

// assignChunk is the fixed shard size of the parallel assignment loop. The
// chunk boundaries depend only on the point count, so sharding never
// affects which points compare against which centroids. It is also the
// cache block: a chunk's x/y lanes (2·2048·8 B = 32 KB) stay resident while
// the centroid lanes stream through.
const assignChunk = 2048

// chunkStat is one assignment chunk's outcome, written only by the worker
// that runs the chunk.
type chunkStat struct {
	changed  bool
	searches int
}

// assignNearest moves every point to its exact nearest centroid (lowest
// index on ties), sharding the chunks across workers, and reports whether
// any assignment changed and how many searches ran. Each point's outcome
// is a pure function of the centroids and its own bounds, so the output is
// schedule-independent.
func assignNearest(s *kmScratch, bounded, useGrid bool, workers int) (changed bool, searches int) {
	n := len(s.xs)
	if workers <= 1 {
		// Inline chunk walk: same chunk boundaries and per-point work as
		// the pooled path, minus the escaping closure (which used to cost
		// two heap allocations per Lloyd pass — thousands per clustering
		// once the cap-aware splitter re-enters KMeans per low cluster).
		for lo := 0; lo < n; lo += assignChunk {
			s.chunks[lo/assignChunk] = s.assignRange(lo, min(lo+assignChunk, n), bounded, useGrid)
		}
	} else {
		par.Chunks(workers, n, assignChunk, func(lo, hi int) {
			s.chunks[lo/assignChunk] = s.assignRange(lo, hi, bounded, useGrid)
		})
	}
	for _, c := range s.chunks {
		changed = changed || c.changed
		searches += c.searches
	}
	return changed, searches
}

// assignRange assigns the points [lo,hi). The reference path scans every
// centroid for every point. The bounded path first moves the point's bounds
// by the last update's drifts; only if they (with the centroid separation on
// the grid) no longer settle it, and still do not once u is tightened to the
// exact distance, does it search, and the search resets both bounds.
func (s *kmScratch) assignRange(lo, hi int, bounded, useGrid bool) chunkStat {
	var st chunkStat
	if !bounded {
		for i := lo; i < hi; i++ {
			if best := bruteNearest(s.xs[i], s.ys[i], s.cxs, s.cys); s.assign[i] != best {
				s.assign[i] = best
				st.changed = true
			}
		}
		st.searches = hi - lo
		return st
	}
	// Locals keep the loop-invariant fields in registers across the lane
	// stores.
	assign, xs, ys := s.assign[lo:hi], s.xs[lo:hi], s.ys[lo:hi]
	ub, lb := s.ub[lo:hi], s.lb[lo:hi]
	cxs, cys, drift, half := s.cxs, s.cys, s.drift, s.half
	maxDrift, slack := s.maxDrift, s.slack
	for i, a := range assign {
		u, l := ub[i]+drift[a], lb[i]-maxDrift
		// The separation test (see settled) joins the point's own lower
		// bound; half is zero off the grid, which leaves l as it is.
		sep := max(l, half[a])
		if !settled(u, sep, slack) {
			px, py := xs[i], ys[i]
			dx, dy := px-cxs[a], py-cys[a]
			d2 := dx*dx + dy*dy
			u = math.Sqrt(d2)
			if !settled(u, sep, slack) {
				var best int
				var l2 float64
				if useGrid {
					best, d2, l2 = s.grid.nearest(px, py, a, d2)
				} else {
					best, d2, l2 = bruteNearest2(px, py, cxs, cys)
				}
				st.searches++
				u, l = math.Sqrt(d2), math.Sqrt(l2)
				if best != a {
					assign[i] = best
					st.changed = true
				}
			}
		}
		ub[i], lb[i] = u, l
	}
	return st
}

// bruteNearest is the reference O(k) scan; first minimum wins, which equals
// the lowest index among distance ties. Squared distances order identically
// to Euclidean ones, so this matches the grid search exactly.
func bruteNearest(px, py float64, cxs, cys []float64) int {
	best, bestD2 := 0, math.Inf(1)
	for c := range cxs {
		dx, dy := px-cxs[c], py-cys[c]
		if d2 := dx*dx + dy*dy; d2 < bestD2 {
			best, bestD2 = c, d2
		}
	}
	return best
}

// bruteNearest2 is bruteNearest that also returns the winner's squared
// distance and the runner-up's, the bounded path's two bounds squared. At a
// tie the runner-up equals the winner, so the tied point is never settled.
func bruteNearest2(px, py float64, cxs, cys []float64) (best int, bestD2, secondD2 float64) {
	bestD2, secondD2 = math.Inf(1), math.Inf(1)
	for c := range cxs {
		dx, dy := px-cxs[c], py-cys[c]
		if d2 := dx*dx + dy*dy; d2 < bestD2 {
			best, bestD2, secondD2 = c, d2, bestD2
		} else if d2 < secondD2 {
			secondD2 = d2
		}
	}
	return best, bestD2, secondD2
}

// recompute rebuilds the centroid set from the current assignment, in place
// over s.cxs/s.cys. Sums accumulate componentwise in point order — the exact
// FP operation sequence of the original geom.Point accumulation. Clusters
// left empty keep their current centroid (they may repopulate).
func recompute(s *kmScratch, n, k int) {
	sxs, sys, cnt := s.sxs[:k], s.sys[:k], s.cnt[:k]
	for c := 0; c < k; c++ {
		sxs[c], sys[c], cnt[c] = 0, 0, 0
	}
	for i := 0; i < n; i++ {
		a := s.assign[i]
		sxs[a] += s.xs[i]
		sys[a] += s.ys[i]
		cnt[a]++
	}
	for c := 0; c < k; c++ {
		if cnt[c] == 0 {
			continue // keep seed; may repopulate
		}
		inv := 1 / float64(cnt[c])
		s.cxs[c] = sxs[c] * inv
		s.cys[c] = sys[c] * inv
	}
}

// balance enforces a soft capacity of ceil(1.25·target): clusters over the
// cap shed their farthest points to the nearest cluster with headroom.
func balance(s *kmScratch, n, k, target int) {
	capSize := int(math.Ceil(1.25 * float64(target)))
	if capSize < 1 {
		capSize = 1
	}
	// Counting-sort the members into one flat backing; segments are
	// three-index sliced so the rare "everyone full" re-append cannot
	// scribble over the next cluster's segment.
	s.moff = arena.Grow(s.moff, k+1)
	s.members = arena.Grow(s.members, n)
	moff := s.moff
	for c := range moff {
		moff[c] = 0
	}
	for i := 0; i < n; i++ {
		moff[s.assign[i]+1]++
	}
	for c := 1; c <= k; c++ {
		moff[c] += moff[c-1]
	}
	s.cnt = arena.GrowZero(s.cnt, k)
	fill := s.cnt
	for i := 0; i < n; i++ {
		a := s.assign[i]
		s.members[moff[a]+fill[a]] = i
		fill[a]++
	}
	memberOf := func(c int) []int {
		return s.members[moff[c]:moff[c+1]:moff[c+1]]
	}
	size := fill // alias: fill[c] == len(members of c)
	for c := 0; c < k; c++ {
		if size[c] <= capSize {
			continue
		}
		// Evict points farthest from the centroid first.
		m := memberOf(c)
		ccx, ccy := s.cxs[c], s.cys[c]
		sort.Slice(m, func(i, j int) bool {
			dxi, dyi := s.xs[m[i]]-ccx, s.ys[m[i]]-ccy
			dxj, dyj := s.xs[m[j]]-ccx, s.ys[m[j]]-ccy
			return dxi*dxi+dyi*dyi < dxj*dxj+dyj*dyj
		})
		for len(m) > capSize {
			p := m[len(m)-1]
			m = m[:len(m)-1]
			// Nearest cluster with headroom.
			best, bestD2 := -1, math.Inf(1)
			px, py := s.xs[p], s.ys[p]
			for o := 0; o < k; o++ {
				if o == c || size[o] >= capSize {
					continue
				}
				dx, dy := px-s.cxs[o], py-s.cys[o]
				if d2 := dx*dx + dy*dy; d2 < bestD2 {
					best, bestD2 = o, d2
				}
			}
			if best < 0 {
				// Everyone full (can happen when N ≈ k·cap); keep it.
				m = append(m, p)
				break
			}
			s.assign[p] = best
			size[best]++
			size[c]--
		}
	}
}

// buildResult materializes the compact Result. Everything it returns is
// freshly heap-allocated — the Result escapes to the caller and must never
// alias arena scratch. Members is a counting sort over one shared backing
// array, replacing the per-cluster append chains that used to dominate the
// clustering allocation profile.
func buildResult(s *kmScratch, n, k int) *Result {
	// Drop empty clusters and remap ids for a compact result.
	s.cnt = arena.GrowZero(s.cnt, k)
	cnt := s.cnt
	for _, a := range s.assign[:n] {
		cnt[a]++
	}
	s.remap = arena.Grow(s.remap, k)
	remap := s.remap
	nk := 0
	for c := 0; c < k; c++ {
		if cnt[c] == 0 {
			remap[c] = -1
			continue
		}
		remap[c] = nk
		nk++
	}
	kept := make([]geom.Point, nk)
	nk = 0
	for c := 0; c < k; c++ {
		if remap[c] >= 0 {
			kept[nk] = geom.Point{X: s.cxs[c], Y: s.cys[c]}
			nk++
		}
	}
	out := &Result{
		Assign:    make([]int, n),
		Centroids: kept,
		Members:   make([][]int, nk),
	}
	backing := make([]int, n)
	s.moff = arena.Grow(s.moff, nk+1)
	moff := s.moff
	for c := range moff[:nk+1] {
		moff[c] = 0
	}
	for _, a := range s.assign[:n] {
		moff[remap[a]+1]++
	}
	for c := 1; c <= nk; c++ {
		moff[c] += moff[c-1]
	}
	for c := 0; c < nk; c++ {
		out.Members[c] = backing[moff[c]:moff[c]:moff[c+1]]
	}
	for i, a := range s.assign[:n] {
		na := remap[a]
		out.Assign[i] = na
		out.Members[na] = append(out.Members[na], i)
	}
	return out
}
