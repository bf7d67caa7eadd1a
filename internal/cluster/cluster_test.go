package cluster

import (
	"math"
	"math/rand"
	"testing"

	"dscts/internal/geom"
)

func randomPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

// clumpedPoints mimics the macro-blocked, non-uniform placements of Fig. 5:
// points drawn around a few attractor hotspots.
func clumpedPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	hot := []geom.Point{{X: 100, Y: 100}, {X: 800, Y: 200}, {X: 300, Y: 850}, {X: 900, Y: 900}}
	pts := make([]geom.Point, n)
	for i := range pts {
		h := hot[rng.Intn(len(hot))]
		pts[i] = geom.Pt(h.X+rng.NormFloat64()*60, h.Y+rng.NormFloat64()*60)
	}
	return pts
}

func TestKMeansPartition(t *testing.T) {
	pts := randomPoints(500, 3)
	res, err := KMeans(pts, Options{TargetSize: 30, Seed: 7, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() == 0 {
		t.Fatal("no clusters")
	}
	// Every point assigned exactly once; member lists consistent.
	count := 0
	for c, m := range res.Members {
		for _, i := range m {
			if res.Assign[i] != c {
				t.Fatalf("member %d of %d has assign %d", i, c, res.Assign[i])
			}
			count++
		}
	}
	if count != len(pts) {
		t.Fatalf("%d of %d points in members", count, len(pts))
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts := randomPoints(300, 9)
	a, _ := KMeans(pts, Options{TargetSize: 25, Seed: 42})
	b, _ := KMeans(pts, Options{TargetSize: 25, Seed: 42})
	if a.K() != b.K() {
		t.Fatalf("K differs: %d vs %d", a.K(), b.K())
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed must give same assignment")
		}
	}
}

func TestKMeansBalanceCap(t *testing.T) {
	pts := clumpedPoints(1000, 5)
	res, err := KMeans(pts, Options{TargetSize: 30, Seed: 1, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	capSize := int(math.Ceil(1.25 * 30))
	over := 0
	for _, m := range res.Members {
		if len(m) > capSize {
			over++
		}
	}
	// Balancing is best-effort; on clumped data the cap must hold for the
	// overwhelming majority (allow a couple of saturated clusters).
	if over > res.K()/10 {
		t.Fatalf("%d of %d clusters above cap %d", over, res.K(), capSize)
	}
}

func TestKMeansSmallInputs(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1)}
	res, err := KMeans(pts, Options{TargetSize: 30, Seed: 1})
	if err != nil || res.K() != 1 || res.Assign[0] != 0 {
		t.Fatalf("single point: %+v err %v", res, err)
	}
	if res.Centroids[0].Dist(geom.Pt(1, 1)) > 1e-9 {
		t.Errorf("centroid %v", res.Centroids[0])
	}
	if _, err := KMeans(nil, Options{TargetSize: 30}); err == nil {
		t.Error("empty input should error")
	}
	if _, err := KMeans(pts, Options{TargetSize: 0}); err == nil {
		t.Error("bad target should error")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	pts := make([]geom.Point, 100)
	for i := range pts {
		pts[i] = geom.Pt(5, 5)
	}
	res, err := KMeans(pts, Options{TargetSize: 10, Seed: 2, Balance: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Centroids {
		if c.Dist(geom.Pt(5, 5)) > 1e-9 {
			t.Fatalf("centroid %v for identical points", c)
		}
	}
}

// Property: clustering quality — assignment cost must not exceed the cost of
// assigning every point to a single global centroid (k-means with k>=1
// cannot be worse than k=1 up to Lloyd local optima; we allow 1% slack).
func TestKMeansBeatsSingleCluster(t *testing.T) {
	pts := clumpedPoints(600, 11)
	res, err := KMeans(pts, Options{TargetSize: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var c geom.Point
	for _, p := range pts {
		c = c.Add(p)
	}
	c = geom.Pt(c.X/float64(len(pts)), c.Y/float64(len(pts)))
	single, got := 0.0, 0.0
	for i, p := range pts {
		single += p.Dist(c)
		got += p.Dist(res.Centroids[res.Assign[i]])
	}
	if got > single*1.01 {
		t.Fatalf("k-means WL %v worse than single cluster %v", got, single)
	}
}

func TestDualLevelHierarchy(t *testing.T) {
	pts := clumpedPoints(2000, 21)
	d, err := DualLevel(pts, DualOptions{HighSize: 500, LowSize: 30, Seed: 1, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(len(pts)); err != nil {
		t.Fatal(err)
	}
	if d.High.K() < 2 {
		t.Fatalf("expected several high clusters, got %d", d.High.K())
	}
	if d.NumLow() < 40 {
		t.Fatalf("expected ~67 low clusters, got %d", d.NumLow())
	}
	if len(d.LowCentroids) != len(d.LowHigh) || len(d.LowCentroids) != len(d.LowSinks) {
		t.Fatal("flattened arrays inconsistent")
	}
	// Each flattened low cluster must point at a valid high cluster and its
	// sinks must all belong to that high cluster.
	for lc, h := range d.LowHigh {
		if h < 0 || h >= d.High.K() {
			t.Fatalf("low %d bad high %d", lc, h)
		}
		for _, s := range d.LowSinks[lc] {
			if d.High.Assign[s] != h {
				t.Fatalf("sink %d of low %d not in high %d", s, lc, h)
			}
		}
	}
}

func TestDualLevelSmall(t *testing.T) {
	// Fewer sinks than Lc: single high cluster, single low cluster.
	pts := randomPoints(10, 1)
	d, err := DualLevel(pts, DualOptions{HighSize: 3000, LowSize: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.High.K() != 1 || d.NumLow() != 1 {
		t.Fatalf("K = %d/%d, want 1/1", d.High.K(), d.NumLow())
	}
	if err := d.Validate(len(pts)); err != nil {
		t.Fatal(err)
	}
}

func TestDualLevelOptionErrors(t *testing.T) {
	pts := randomPoints(10, 1)
	if _, err := DualLevel(pts, DualOptions{HighSize: 0, LowSize: 30}); err == nil {
		t.Error("zero Hc should error")
	}
	if _, err := DualLevel(pts, DualOptions{HighSize: 10, LowSize: 30}); err == nil {
		t.Error("Lc > Hc should error")
	}
}

func TestDefaultDualOptionsMatchPaper(t *testing.T) {
	o := DefaultDualOptions()
	if o.HighSize != 3000 || o.LowSize != 30 {
		t.Fatalf("paper sets Hc=3000, Lc=30; got %d/%d", o.HighSize, o.LowSize)
	}
}

// Low-level clusters respect the fanout-style cap (soft bound check on
// realistic clumped data).
func TestDualLowClusterSizes(t *testing.T) {
	pts := clumpedPoints(3000, 31)
	d, err := DualLevel(pts, DualOptions{HighSize: 1000, LowSize: 30, Seed: 4, MaxIter: 30})
	if err != nil {
		t.Fatal(err)
	}
	capSize := int(math.Ceil(1.25 * 30))
	over := 0
	for _, s := range d.LowSinks {
		if len(s) > capSize {
			over++
		}
	}
	if over > d.NumLow()/10 {
		t.Fatalf("%d of %d low clusters above %d sinks", over, d.NumLow(), capSize)
	}
}
