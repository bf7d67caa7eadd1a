package cluster

import (
	"fmt"
	"math"
	"testing"

	"dscts/internal/bench"
	"dscts/internal/geom"
	"dscts/internal/tech"
)

// flowDualOptions returns the clustering options the synthesis flow uses:
// the paper's sizes, 40 Lloyd passes, and the leaf-net cap split.
func flowDualOptions(workers int, brute bool) DualOptions {
	tc := tech.ASAP7()
	front := tc.Front()
	opt := DefaultDualOptions()
	opt.MaxIter = 40
	opt.Workers = workers
	opt.Brute = brute
	opt.CapOf = func(s, c geom.Point) float64 { return tc.SinkCap + front.UnitCap*s.Dist(c) }
	opt.CapLimit = 0.6 * tc.Buf.MaxCap
	return opt
}

func suitePlacement(t *testing.T, d bench.Design, seed int64) []geom.Point {
	t.Helper()
	p, err := bench.Generate(d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return p.Sinks
}

func sameDual(a, b *Dual) error {
	if len(a.High.Assign) != len(b.High.Assign) {
		return fmt.Errorf("high assignment lengths %d vs %d", len(a.High.Assign), len(b.High.Assign))
	}
	for i := range a.High.Assign {
		if a.High.Assign[i] != b.High.Assign[i] {
			return fmt.Errorf("high assign[%d] = %d vs %d", i, a.High.Assign[i], b.High.Assign[i])
		}
	}
	if a.NumLow() != b.NumLow() {
		return fmt.Errorf("low cluster counts %d vs %d", a.NumLow(), b.NumLow())
	}
	for lc := range a.LowCentroids {
		if a.LowCentroids[lc] != b.LowCentroids[lc] {
			return fmt.Errorf("low centroid %d: %v vs %v", lc, a.LowCentroids[lc], b.LowCentroids[lc])
		}
		if len(a.LowSinks[lc]) != len(b.LowSinks[lc]) {
			return fmt.Errorf("low cluster %d sizes %d vs %d", lc, len(a.LowSinks[lc]), len(b.LowSinks[lc]))
		}
		for i := range a.LowSinks[lc] {
			if a.LowSinks[lc][i] != b.LowSinks[lc][i] {
				return fmt.Errorf("low cluster %d member %d: %d vs %d", lc, i, a.LowSinks[lc][i], b.LowSinks[lc][i])
			}
		}
	}
	return nil
}

// TestBoundedDualMatchesBrute runs the flow's dual-level clustering — high
// and low levels plus the cap-aware splits — on the Table II placements at
// three seeds: the bounded path must equal the brute-force reference at
// one and at seven workers.
func TestBoundedDualMatchesBrute(t *testing.T) {
	for _, d := range bench.Suite() {
		for seed := int64(1); seed <= 3; seed++ {
			sinks := suitePlacement(t, d, seed)
			ref, err := DualLevel(sinks, flowDualOptions(1, true))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 7} {
				got, err := DualLevel(sinks, flowDualOptions(workers, false))
				if err != nil {
					t.Fatal(err)
				}
				if err := sameDual(got, ref); err != nil {
					t.Fatalf("%s seed %d workers %d: bounded vs brute: %v", d.ID, seed, workers, err)
				}
			}
		}
	}
}

// TestWorkCounters pins the clustering work counters on C1..C5: the bounded
// path runs exactly the reference's passes and assignments, searches for
// at most 30% of them, and counts the same at every worker count, while
// the reference searches every assignment.
func TestWorkCounters(t *testing.T) {
	for _, d := range bench.Suite() {
		sinks := suitePlacement(t, d, 1)
		ref, err := DualLevel(sinks, flowDualOptions(1, true))
		if err != nil {
			t.Fatal(err)
		}
		one, err := DualLevel(sinks, flowDualOptions(1, false))
		if err != nil {
			t.Fatal(err)
		}
		seven, err := DualLevel(sinks, flowDualOptions(7, false))
		if err != nil {
			t.Fatal(err)
		}
		rw, w := ref.Work, one.Work
		t.Logf("%s: %d passes, %d assignments, %d searches (brute %d)", d.ID, w.Iterations, w.Assignments, w.Searches, rw.Searches)
		if w.Iterations != rw.Iterations || w.Assignments != rw.Assignments {
			t.Errorf("%s: bounded ran %d passes / %d assignments, brute %d / %d",
				d.ID, w.Iterations, w.Assignments, rw.Iterations, rw.Assignments)
		}
		if rw.Searches != rw.Assignments {
			t.Errorf("%s: brute searched %d of %d assignments", d.ID, rw.Searches, rw.Assignments)
		}
		if float64(w.Searches) > 0.3*float64(w.Assignments) {
			t.Errorf("%s: bounded searched %d of %d assignments (> 30%%)", d.ID, w.Searches, w.Assignments)
		}
		if seven.Work != w {
			t.Errorf("%s: work at 7 workers %+v, at 1 worker %+v", d.ID, seven.Work, w)
		}
	}
}

// TestSettledMargin pins the bound test's margin: a tie, a one-ulp win, or
// any win inside the rounding margin sends the point to the search; only a
// clear win settles it.
func TestSettledMargin(t *testing.T) {
	slack := boundRel * 1000.0 // coordinates up to 1000 µm
	for _, c := range []struct {
		u, l float64
		want bool
	}{
		{0, 0, false},
		{10, 10, false},
		{10, math.Nextafter(10, 11), false},
		{10, 10 + 1e-7, false},
		{10, 10 + 1e-5, true},
		{0, 1e-5, true},
		{10, math.Inf(1), true},
		{10, math.NaN(), false},
		{math.Inf(1), math.Inf(1), false},
	} {
		if got := settled(c.u, c.l, slack); got != c.want {
			t.Errorf("settled(u=%v, l=%v) = %v, want %v", c.u, c.l, got, c.want)
		}
	}
	// The separation test: assignRange passes max(l, half) for l, where
	// half is half a lower bound on the centroid's distance to every other
	// one. A point exactly at half the separation, or inside the margin of
	// it, searches even when its own lower bound has decayed away.
	for _, c := range []struct {
		u, l, half float64
		want       bool
	}{
		{10, -3, 10, false},
		{10, -3, math.Nextafter(10, 11), false},
		{10, -3, 10 + 1e-7, false},
		{10, -3, 10 + 1e-5, true},
		{10, 10, 10, false},
		{10, 10 + 1e-5, 0, true},
		{0, -1, 0, false},
	} {
		if got := settled(c.u, max(c.l, c.half), slack); got != c.want {
			t.Errorf("settled(u=%v, max(l=%v, half=%v)) = %v, want %v", c.u, c.l, c.half, got, c.want)
		}
	}
}

// TestBoundsFallback: point sets whose scale the bound margin does not
// cover, and runs longer than its rounding budget, take the reference path
// (every assignment searches) and still match Brute.
func TestBoundsFallback(t *testing.T) {
	for _, c := range []struct {
		name    string
		scale   float64
		maxIter int
		bounded bool
	}{
		{"micrometres", 1000, 40, true},
		{"huge", 1e130, 40, false},
		{"tiny", 1e-130, 40, false},
		{"long run", 1000, boundMaxIter + 1, false},
	} {
		pts := randomPoints(2000, 5)
		for i := range pts {
			pts[i] = geom.Pt(pts[i].X/1000*c.scale, pts[i].Y/1000*c.scale)
		}
		got, err := KMeans(pts, Options{TargetSize: 25, MaxIter: c.maxIter, Seed: 2, Balance: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := KMeans(pts, Options{TargetSize: 25, MaxIter: c.maxIter, Seed: 2, Balance: true, Workers: 1, Brute: true})
		if err != nil {
			t.Fatal(err)
		}
		if bounded := got.Work.Searches < got.Work.Assignments; bounded != c.bounded {
			t.Errorf("%s: %d searches of %d assignments; want bounded = %v", c.name, got.Work.Searches, got.Work.Assignments, c.bounded)
		}
		for i := range got.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("%s: assign[%d] = %d vs %d (brute)", c.name, i, got.Assign[i], ref.Assign[i])
			}
		}
		for k := range got.Centroids {
			if got.Centroids[k] != ref.Centroids[k] {
				t.Fatalf("%s: centroid %d differs: %v vs %v", c.name, k, got.Centroids[k], ref.Centroids[k])
			}
		}
	}
}
