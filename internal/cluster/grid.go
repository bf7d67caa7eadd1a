package cluster

import (
	"math"

	"dscts/internal/arena"
)

// centGrid is a uniform spatial hash over the current centroid set, used to
// answer exact nearest-centroid queries without scanning all k centroids.
// Cells are sized so the grid holds ~1 centroid per cell; a query walks
// Chebyshev rings outward from the query point's cell and stops as soon as
// no unvisited ring can contain a closer centroid.
//
// The search is exact and breaks distance ties by the lowest centroid
// index, so it returns precisely the centroid the brute-force scan of
// bruteNearest would return — the grid is a pure accelerator, never a
// heuristic. It serves only the bounded Lloyd path, which also takes the
// walk's runner-up as a point's lower bound. It lives inside kmScratch and
// reuses its CSR buffers across Lloyd iterations and across KMeans
// invocations; the hot ring walk is written as straight loops over the
// flat centroid lanes (the closure-based row/cell scanners it replaced
// were ~20% of clustering CPU).
type centGrid struct {
	minX, minY float64
	cell       float64 // cell edge length, µm
	inv        float64 // 1/cell
	nx, ny     int
	// CSR bucket layout: items[start[c]:start[c+1]] are the centroid
	// indices in cell c (row-major). Rebuilt once per Lloyd iteration.
	// px/py mirror items with the centroid coordinates packed in the same
	// order, so a ring scan streams contiguous floats instead of gathering
	// cxs[c]/cys[c] at random — the values are copied verbatim at build
	// time, so every computed distance is bit-identical to the gather.
	start []int32
	items []int32
	fill  []int32
	px    []float64
	py    []float64
}

// gridMinCentroids is the centroid count below which the brute-force scan
// wins (grid build + ring bookkeeping costs more than k distance checks).
const gridMinCentroids = 16

// size (re)dimensions the grid for k ~ len(cxs) occupied cells, reusing the
// CSR buffers from the previous use. It returns false when the centroid set
// is too small or degenerate (zero spatial extent), in which case the caller
// falls back to the brute-force scan.
func (g *centGrid) size(cxs, cys []float64) bool {
	k := len(cxs)
	if k < gridMinCentroids {
		return false
	}
	minX, minY := cxs[0], cys[0]
	maxX, maxY := cxs[0], cys[0]
	for i := 1; i < k; i++ {
		minX = math.Min(minX, cxs[i])
		minY = math.Min(minY, cys[i])
		maxX = math.Max(maxX, cxs[i])
		maxY = math.Max(maxY, cys[i])
	}
	w, h := maxX-minX, maxY-minY
	if w <= 0 && h <= 0 {
		return false // all centroids coincide
	}
	// Aim for ~1 centroid per cell, but never more than ~2√k cells per
	// axis: an anisotropic point set (one extent near zero) would
	// otherwise shatter the long axis into k·(long/short) mostly-empty
	// cells and turn each ring walk into a crawl. Cells stay square — the
	// (r-1)·cell ring lower bound depends on that.
	maxPerAxis := 2*math.Sqrt(float64(k)) + 1
	cell := math.Sqrt(math.Max(w, 1e-9) * math.Max(h, 1e-9) / float64(k))
	cell = math.Max(cell, math.Max(w, h)/maxPerAxis)
	if cell <= 0 {
		return false
	}
	nx := int(w/cell) + 1
	ny := int(h/cell) + 1
	g.minX, g.minY = minX, minY
	g.cell, g.inv = cell, 1/cell
	g.nx, g.ny = nx, ny
	// The caller rebuilds the buckets (build) before each query round; the
	// sizing pass only (re)dimensions the arenas.
	g.start = arena.Grow(g.start, nx*ny+1)
	g.items = arena.Grow(g.items, k)
	g.fill = arena.Grow(g.fill, nx*ny)
	g.px = arena.Grow(g.px, k)
	g.py = arena.Grow(g.py, k)
	return true
}

// cellIdx returns the (clamped) bucket of a coordinate pair. Points drifting
// outside the sizing bounding box are clamped into border cells, which keeps
// the search exact because the ring lower bound is measured from the clamped
// cell.
func (g *centGrid) cellIdx(x, y float64) int {
	cx := clampInt(int((x-g.minX)*g.inv), 0, g.nx-1)
	cy := clampInt(int((y-g.minY)*g.inv), 0, g.ny-1)
	return cy*g.nx + cx
}

// build re-buckets the centroids (called once per Lloyd iteration, since
// centroids move between iterations but the bounding box is re-used).
func (g *centGrid) build(cxs, cys []float64) {
	for i := range g.start {
		g.start[i] = 0
	}
	for i := range cxs {
		g.start[g.cellIdx(cxs[i], cys[i])+1]++
	}
	for i := 1; i < len(g.start); i++ {
		g.start[i] += g.start[i-1]
	}
	for i := range g.fill {
		g.fill[i] = 0
	}
	for i := range cxs {
		cell := g.cellIdx(cxs[i], cys[i])
		pos := g.start[cell] + g.fill[cell]
		g.items[pos] = int32(i)
		g.px[pos] = cxs[i]
		g.py[pos] = cys[i]
		g.fill[cell]++
	}
}

// nearest returns the exact nearest centroid to (px,py) — ties broken by
// lowest index, matching bruteNearest — with its squared distance, and a
// squared lower bound on the distance to every other centroid. Distances
// are compared squared: the ordering is identical and the hot loop avoids
// math.Hypot.
//
// seed is the point's current centroid and seedD2 its squared distance
// (computed as in the scan). The seed primes the walk, so rings beyond it
// terminate immediately. This is a pure accelerator: the termination bound
// is strict (lb² > bestD2), so every centroid at distance <= the current
// best is still scanned and the lowest-index tie-break is applied to
// exactly the candidate set a walk without the seed would see.
//
// The lower bound is the smaller of the runner-up among the scanned
// centroids and the ring bound at which the walk stopped, since every
// centroid it did not scan lies at least that far away. At a tie the
// runner-up equals the best distance.
func (g *centGrid) nearest(px, py float64, seed int, seedD2 float64) (best int, bestD2, otherD2 float64) {
	qx := clampInt(int((px-g.minX)*g.inv), 0, g.nx-1)
	qy := clampInt(int((py-g.minY)*g.inv), 0, g.ny-1)
	best, bestD2, otherD2 = seed, seedD2, math.Inf(1)
	// scan streams one contiguous CSR range [lo,hi) through the packed
	// coordinate lanes. Ring rows cover several adjacent cells in one range,
	// so the common case is a single linear walk per row. The seed is met
	// again in its own cell; while it is still the best, it must not count
	// as its own runner-up.
	scan := func(lo, hi int32) {
		for t := lo; t < hi; t++ {
			dx, dy := px-g.px[t], py-g.py[t]
			c := int(g.items[t])
			if d2 := dx*dx + dy*dy; d2 < bestD2 || (d2 == bestD2 && c < best) {
				best, bestD2, otherD2 = c, d2, bestD2
			} else if d2 < otherD2 && c != best {
				otherD2 = d2
			}
		}
	}
	for r := 0; ; r++ {
		// Any centroid bucketed in a ring-r cell is at least (r-1)·cell
		// away from p: clamping is 1-Lipschitz, so cell-index distance
		// lower-bounds true distance. Once that bound strictly exceeds
		// the best distance (ties at exactly bestD2 could still have a
		// lower index), no further ring can improve the answer.
		if r >= 1 {
			lb := float64(r-1) * g.cell
			if lb2 := lb * lb; lb2 > bestD2 {
				return best, bestD2, min(otherD2, lb2)
			}
		}
		visited := false
		if r == 0 {
			// The query cell is clamped in range, so ring 0 always scans.
			cell := qy*g.nx + qx
			scan(g.start[cell], g.start[cell+1])
			visited = true
		} else {
			// Top and bottom rows of the ring (contiguous in memory),
			// then the two side columns.
			x0, x1 := qx-r, qx+r
			if x0 < 0 {
				x0 = 0
			}
			if x1 >= g.nx {
				x1 = g.nx - 1
			}
			if x0 <= x1 {
				if y := qy - r; y >= 0 && y < g.ny {
					row := y * g.nx
					scan(g.start[row+x0], g.start[row+x1+1])
					visited = true
				}
				if y := qy + r; y >= 0 && y < g.ny {
					row := y * g.nx
					scan(g.start[row+x0], g.start[row+x1+1])
					visited = true
				}
			}
			for y := qy - r + 1; y <= qy+r-1; y++ {
				if y < 0 || y >= g.ny {
					continue
				}
				row := y * g.nx
				if x := qx - r; x >= 0 && x < g.nx {
					cell := row + x
					scan(g.start[cell], g.start[cell+1])
					visited = true
				}
				if x := qx + r; x >= 0 && x < g.nx {
					cell := row + x
					scan(g.start[cell], g.start[cell+1])
					visited = true
				}
			}
		}
		if !visited {
			// The ring lies wholly outside the grid, and so does every
			// larger one: all centroids have been scanned.
			return best, bestD2, otherD2
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
