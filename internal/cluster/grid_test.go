package cluster

import (
	"math/rand"
	"testing"

	"dscts/internal/geom"
)

// TestGridMatchesBrute pins the accelerator contract: the bounded,
// grid-accelerated k-means must reproduce the brute-force reference
// exactly — same assignments, same centroids — for any worker count,
// including clustered (hotspot-like), degenerate and adversarial point
// sets: exact distance ties, coincident centroids, a line, and coordinates
// far from the origin.
func TestGridMatchesBrute(t *testing.T) {
	type pointSet struct {
		name string
		seed int64
		pts  []geom.Point
	}
	var sets []pointSet
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		n := 300 + rng.Intn(2500)
		pts := make([]geom.Point, n)
		for i := range pts {
			switch trial % 3 {
			case 0: // uniform
				pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*800)
			case 1: // hotspots, like the Table II generator
				cx, cy := float64(rng.Intn(4))*250, float64(rng.Intn(3))*250
				pts[i] = geom.Pt(cx+rng.NormFloat64()*40, cy+rng.NormFloat64()*40)
			default: // near-collinear (degenerate vertical extent)
				pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1e-6)
			}
		}
		sets = append(sets, pointSet{[]string{"uniform", "hotspots", "near-collinear"}[trial%3], int64(trial), pts})
	}
	// A 70×70 integer lattice: many points sit exactly halfway between
	// centroids, so distance ties are exact.
	lattice := make([]geom.Point, 0, 70*70)
	for y := 0; y < 70; y++ {
		for x := 0; x < 70; x++ {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	sets = append(sets, pointSet{"lattice", 6, lattice})
	// 3000 points on 35 distinct sites: seeds and centroids coincide.
	sites := make([]geom.Point, 35)
	for i := range sites {
		sites[i] = geom.Pt(rng.Float64()*500, rng.Float64()*500)
	}
	stacked := make([]geom.Point, 3000)
	for i := range stacked {
		stacked[i] = sites[rng.Intn(len(sites))]
	}
	sets = append(sets, pointSet{"coincident", 7, stacked})
	// A 4000-point line: the grid degenerates to one row.
	line := make([]geom.Point, 4000)
	for i := range line {
		line[i] = geom.Pt(rng.Float64()*2000, 0)
	}
	sets = append(sets, pointSet{"line", 8, line})
	// 5000 points offset by 1e6 µm: the rounding of the coordinates
	// dwarfs that of the distances.
	offset := make([]geom.Point, 5000)
	for i := range offset {
		offset[i] = geom.Pt(1e6+rng.Float64()*1000, 1e6+rng.Float64()*1000)
	}
	sets = append(sets, pointSet{"offset", 9, offset})

	for trial, set := range sets {
		pts := set.pts
		grid, err := KMeans(pts, Options{TargetSize: 25, Seed: set.seed, Balance: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		brute, err := KMeans(pts, Options{TargetSize: 25, Seed: set.seed, Balance: true, Workers: 5, Brute: true})
		if err != nil {
			t.Fatal(err)
		}
		if grid.K() != brute.K() {
			t.Fatalf("trial %d (%s): K %d vs %d", trial, set.name, grid.K(), brute.K())
		}
		for i := range grid.Assign {
			if grid.Assign[i] != brute.Assign[i] {
				t.Fatalf("trial %d (%s): assign[%d] = %d (grid) vs %d (brute)", trial, set.name, i, grid.Assign[i], brute.Assign[i])
			}
		}
		for c := range grid.Centroids {
			if grid.Centroids[c] != brute.Centroids[c] {
				t.Fatalf("trial %d (%s): centroid %d differs: %v vs %v", trial, set.name, c, grid.Centroids[c], brute.Centroids[c])
			}
		}
		if grid.Work.Iterations != brute.Work.Iterations {
			t.Fatalf("trial %d (%s): %d iterations vs %d (brute)", trial, set.name, grid.Work.Iterations, brute.Work.Iterations)
		}
	}
}

// TestDualLevelWorkerInvariance checks the full dual-level hierarchy is
// identical across worker counts (the parallel path covers the
// per-high-cluster fan-out and the sharded assignment loop).
func TestDualLevelWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*2000, rng.Float64()*1500)
	}
	opt := DualOptions{HighSize: 1500, LowSize: 30, Seed: 1, MaxIter: 40}
	opt.Workers = 1
	a, err := DualLevel(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 7
	b, err := DualLevel(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumLow() != b.NumLow() {
		t.Fatalf("low cluster counts differ: %d vs %d", a.NumLow(), b.NumLow())
	}
	for lc := range a.LowCentroids {
		if a.LowCentroids[lc] != b.LowCentroids[lc] {
			t.Fatalf("low centroid %d differs: %v vs %v", lc, a.LowCentroids[lc], b.LowCentroids[lc])
		}
		if len(a.LowSinks[lc]) != len(b.LowSinks[lc]) {
			t.Fatalf("low cluster %d sizes differ", lc)
		}
		for i := range a.LowSinks[lc] {
			if a.LowSinks[lc][i] != b.LowSinks[lc][i] {
				t.Fatalf("low cluster %d member %d differs", lc, i)
			}
		}
	}
}
