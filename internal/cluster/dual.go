package cluster

import (
	"fmt"

	"dscts/internal/arena"
	"dscts/internal/geom"
	"dscts/internal/par"
)

// Dual is the dual-level clustering hierarchy of Fig. 5(a)-(b): high-level
// clusters of target size Hc and, inside each, low-level clusters of size
// Lc. Low-level clusters are the leaves of the hierarchical DME and the
// roots of the leaf nets; their centroids are also the skew-refinement
// buffer sites (Sec. III-D step 2).
type Dual struct {
	// High is the top clustering over all sinks.
	High *Result
	// Low holds one low-level clustering per high cluster; Low[h] indexes
	// points by their position in High.Members[h].
	Low []*Result
	// LowCentroids flattens all low-level centroids in deterministic order
	// (high cluster major, low cluster minor).
	LowCentroids []geom.Point
	// LowHigh maps each flattened low-centroid index to its high cluster.
	LowHigh []int
	// LowSinks maps each flattened low-centroid index to the ORIGINAL sink
	// indices it contains.
	LowSinks [][]int
	// Work sums the Lloyd effort of the high-level run, the low-level runs
	// and the cap-aware splits.
	Work Work
}

// DualOptions configures DualLevel.
type DualOptions struct {
	HighSize int // Hc, paper default 3000
	LowSize  int // Lc, paper default 30
	Seed     int64
	MaxIter  int

	// Workers shards the k-means loops and runs the independent low-level
	// clusterings of different high clusters concurrently; <= 0 means all
	// CPUs. Per-cluster seeds depend only on the high-cluster index, so
	// the hierarchy is identical for every worker count.
	Workers int
	// Brute runs every k-means on the reference path (Options.Brute): a
	// full O(n·k) scan each pass, with neither the spatial grid nor the
	// bounds. Both are exact, so this exists only for benchmarking and
	// cross-checking the accelerators against their baseline.
	Brute bool

	// CapOf, when set, gives the load a sink contributes to a leaf net
	// rooted at the given centroid (pin cap plus wire cap, typically).
	// Low-level clusters whose total exceeds CapLimit are split further so
	// every leaf net stays drivable by one buffer (the max-cap constraint
	// of Sec. III-C2).
	CapOf    func(sink, centroid geom.Point) float64
	CapLimit float64

	// Arena sources the k-means scratch from the owning job's arena; nil
	// falls back to the package pool. Identical results either way.
	Arena *arena.Job
}

// DefaultDualOptions returns the paper's empirical settings.
func DefaultDualOptions() DualOptions {
	return DualOptions{HighSize: 3000, LowSize: 30, Seed: 1, MaxIter: 40}
}

// DualLevel runs the two sequential clustering steps on the sink locations.
func DualLevel(sinks []geom.Point, opt DualOptions) (*Dual, error) {
	if opt.HighSize <= 0 || opt.LowSize <= 0 {
		return nil, fmt.Errorf("cluster: sizes must be positive, got Hc=%d Lc=%d", opt.HighSize, opt.LowSize)
	}
	if opt.LowSize > opt.HighSize {
		return nil, fmt.Errorf("cluster: Lc=%d exceeds Hc=%d", opt.LowSize, opt.HighSize)
	}
	workers := par.N(opt.Workers)
	home := scratchHome(opt.Arena)
	high, err := KMeans(sinks, Options{
		TargetSize: opt.HighSize, MaxIter: opt.MaxIter, Seed: opt.Seed, Balance: false,
		Workers: workers, Brute: opt.Brute, Arena: opt.Arena,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: high level: %w", err)
	}
	d := &Dual{High: high, Low: make([]*Result, high.K())}

	// The low-level clusterings of distinct high clusters are independent;
	// run them concurrently and distribute the worker budget between the
	// outer fan-out and each k-means' inner assignment loop. Results land
	// in d.Low[h] by index, so the outcome is order- (and worker-count-)
	// independent. Each concurrent call checks its point staging buffer out
	// of the scratch pool; KMeans copies the points into its own flat
	// lanes, so the buffer is free for reuse as soon as the call returns.
	inner := workers / high.K()
	if inner < 1 {
		inner = 1
	}
	lowErr := make([]error, high.K())
	par.ForEach(workers, high.K(), func(h int) {
		sb := home.sub.Get()
		if sb == nil {
			sb = &subBuf{}
		}
		sb.pts = arena.Grow(sb.pts, len(high.Members[h]))
		for i, idx := range high.Members[h] {
			sb.pts[i] = sinks[idx]
		}
		d.Low[h], lowErr[h] = KMeans(sb.pts, Options{
			TargetSize: opt.LowSize, MaxIter: opt.MaxIter, Seed: opt.Seed + int64(h) + 1, Balance: true,
			Workers: inner, Brute: opt.Brute, Arena: opt.Arena,
		})
		home.sub.Put(sb)
	})
	d.Work = high.Work
	for h, err := range lowErr {
		if err != nil {
			return nil, fmt.Errorf("cluster: low level %d: %w", h, err)
		}
		d.Work.add(d.Low[h].Work)
	}

	// The cap-aware flattening stays sequential: its recursive split seeds
	// depend on the global append order, and preserving that order keeps
	// the hierarchy bit-identical to the single-threaded reference.
	for h := 0; h < high.K(); h++ {
		low := d.Low[h]
		for lc := 0; lc < low.K(); lc++ {
			orig := make([]int, len(low.Members[lc]))
			for i, li := range low.Members[lc] {
				orig[i] = high.Members[h][li]
			}
			d.appendCapAware(sinks, orig, low.Centroids[lc], h, opt, home)
		}
	}
	return d, nil
}

// appendCapAware appends the cluster, bipartitioning it recursively while
// its leaf-net load exceeds opt.CapLimit. Clusters are carried as index
// lists into sinks — the splitter gathers coordinates through the indices
// straight into k-means scratch (bisect), so recursion allocates nothing
// beyond the member lists that escape into d.LowSinks.
func (d *Dual) appendCapAware(sinks []geom.Point, orig []int, centroid geom.Point, h int, opt DualOptions, home *clusterScratch) {
	if opt.CapOf != nil && len(orig) > 1 {
		total := 0.0
		for _, id := range orig {
			total += opt.CapOf(sinks[id], centroid)
		}
		if total > opt.CapLimit {
			// This pass is sequential by design (its seeds depend on the
			// global append order), so the bipartitions run
			// single-threaded to honor the Workers bound.
			s, work := bisect(sinks, orig, Options{
				MaxIter: opt.MaxIter, Seed: opt.Seed + int64(len(d.LowSinks)) + 17,
				Workers: 1, Brute: opt.Brute, Arena: opt.Arena,
			}, home)
			d.Work.add(work)
			n := len(orig)
			cnt0 := 0
			for _, a := range s.assign[:n] {
				if a == 0 {
					cnt0++
				}
			}
			// Both halves populated is exactly KMeans' two.K() >= 2 after
			// its empty-cluster drop.
			if cnt0 > 0 && cnt0 < n {
				sub0 := make([]int, 0, cnt0)
				sub1 := make([]int, 0, n-cnt0)
				for i, a := range s.assign[:n] {
					if a == 0 {
						sub0 = append(sub0, orig[i])
					} else {
						sub1 = append(sub1, orig[i])
					}
				}
				c0 := geom.Point{X: s.cxs[0], Y: s.cys[0]}
				c1 := geom.Point{X: s.cxs[1], Y: s.cys[1]}
				home.km.Put(s)
				d.appendCapAware(sinks, sub0, c0, h, opt, home)
				d.appendCapAware(sinks, sub1, c1, h, opt, home)
				return
			}
			home.km.Put(s)
			// Degenerate split (identical points): fall through and keep.
		}
	}
	d.LowCentroids = append(d.LowCentroids, centroid)
	d.LowHigh = append(d.LowHigh, h)
	d.LowSinks = append(d.LowSinks, orig)
}

// NumLow returns the number of low-level clusters across all high clusters.
func (d *Dual) NumLow() int { return len(d.LowCentroids) }

// Validate checks that the hierarchy is a partition of [0,n).
func (d *Dual) Validate(n int) error {
	seen := make([]bool, n)
	total := 0
	for lc, sinks := range d.LowSinks {
		if len(sinks) == 0 {
			return fmt.Errorf("cluster: empty low cluster %d", lc)
		}
		for _, s := range sinks {
			if s < 0 || s >= n {
				return fmt.Errorf("cluster: sink index %d out of range", s)
			}
			if seen[s] {
				return fmt.Errorf("cluster: sink %d assigned twice", s)
			}
			seen[s] = true
			total++
		}
	}
	if total != n {
		return fmt.Errorf("cluster: %d of %d sinks assigned", total, n)
	}
	return nil
}
