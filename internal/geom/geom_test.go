package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(4, 6)
	if got := p.Add(q); got != Pt(5, 8) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != Pt(3, 4) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Dist(q); got != 7 {
		t.Errorf("Dist = %v, want 7", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(2.5, 4) {
		t.Errorf("Lerp = %v", got)
	}
}

func TestTiltedRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		x = sanitize(x)
		y = sanitize(y)
		p := Pt(x, y)
		return FromTilted(p.Tilted()).Eq(p, 1e-6*(1+math.Abs(x)+math.Abs(y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The defining property of the tilted frame: L1 distance in the original
// frame equals L∞ distance in the tilted frame.
func TestTiltedMetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Pt(sanitize(ax), sanitize(ay))
		b := Pt(sanitize(bx), sanitize(by))
		ta, tb := a.Tilted(), b.Tilted()
		linf := math.Max(math.Abs(ta.X-tb.X), math.Abs(ta.Y-tb.Y))
		return math.Abs(linf-a.Dist(b)) <= 1e-6*(1+a.Dist(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		c := Pt(rng.Float64()*100, rng.Float64()*100)
		if math.Abs(a.Dist(b)-b.Dist(a)) > eps {
			t.Fatalf("asymmetric distance %v %v", a, b)
		}
		if a.Dist(c) > a.Dist(b)+b.Dist(c)+eps {
			t.Fatalf("triangle inequality violated %v %v %v", a, b, c)
		}
	}
}

func TestBBox(t *testing.T) {
	b := NewBBox(Pt(1, 5), Pt(3, 2), Pt(-1, 4))
	if b.MinX != -1 || b.MaxX != 3 || b.MinY != 2 || b.MaxY != 5 {
		t.Fatalf("bbox = %+v", b)
	}
	if b.W() != 4 || b.H() != 3 {
		t.Errorf("W/H = %v %v", b.W(), b.H())
	}
	if !b.Contains(Pt(0, 3), 0) || b.Contains(Pt(5, 3), 0) {
		t.Error("Contains wrong")
	}
	if got := b.Clamp(Pt(10, 0)); got != Pt(3, 2) {
		t.Errorf("Clamp = %v", got)
	}
	var empty BBox
	if empty.Valid() {
		t.Error("zero BBox should be invalid")
	}
}

// arcBetween returns the Manhattan arc between two original-frame points
// on a common slope ±1 line (same u or same v in tilted coordinates).
func arcBetween(a, b Point) Arc {
	ta, tb := a.Tilted(), b.Tilted()
	return Arc{ta.X, ta.Y, tb.X, tb.Y}
}

func TestArcBasics(t *testing.T) {
	// Points (0,0) and (2,2) lie on a slope +1 line: v = x-y equal (0).
	a := arcBetween(Pt(0, 0), Pt(2, 2))
	if math.Abs(a.Len()-4) > eps {
		t.Errorf("Len = %v, want 4 (Manhattan)", a.Len())
	}
	p := PointArc(Pt(3, 4))
	if p.Len() != 0 || !p.A().Eq(Pt(3, 4), eps) {
		t.Errorf("PointArc = %v", p)
	}
	if !a.Sample(0).Eq(a.A(), eps) || !a.Sample(1).Eq(a.B(), eps) {
		t.Error("Sample endpoints mismatch")
	}
}

func TestTRRIntersect(t *testing.T) {
	// Two point-cores at Manhattan distance 10; expanding each by 5 must
	// intersect in exactly the set of midpoints (a Manhattan arc).
	a := NewTRR(PointArc(Pt(0, 0)), 5)
	b := NewTRR(PointArc(Pt(10, 0)), 5)
	is := a.Intersect(b)
	if is.Empty() {
		t.Fatal("expected non-empty intersection")
	}
	core := is.CoreArc()
	// All points on the core must be at distance exactly 5 from both centers.
	for _, s := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p := core.Sample(s)
		if math.Abs(p.Dist(Pt(0, 0))-5) > eps || math.Abs(p.Dist(Pt(10, 0))-5) > eps {
			t.Errorf("core point %v not equidistant: %v %v", p, p.Dist(Pt(0, 0)), p.Dist(Pt(10, 0)))
		}
	}
	// Radii that don't reach: empty intersection.
	c := NewTRR(PointArc(Pt(10, 0)), 3)
	if got := a.Intersect(c); !got.Empty() {
		t.Errorf("expected empty intersection, got %+v", got)
	}
}

func TestArcDistAndClosest(t *testing.T) {
	a := arcBetween(Pt(0, 0), Pt(2, 2))
	b := arcBetween(Pt(10, 0), Pt(12, 2))
	d := ArcDist(a, b)
	pa, pb := ClosestBetweenArcs(a, b)
	if math.Abs(pa.Dist(pb)-d) > eps {
		t.Errorf("ClosestBetweenArcs dist %v != ArcDist %v", pa.Dist(pb), d)
	}
	// Brute-force check of ArcDist by sampling.
	best := math.Inf(1)
	for i := 0; i <= 100; i++ {
		for j := 0; j <= 100; j++ {
			d2 := a.Sample(float64(i) / 100).Dist(b.Sample(float64(j) / 100))
			best = math.Min(best, d2)
		}
	}
	if math.Abs(best-d) > 1e-6 {
		t.Errorf("ArcDist = %v, brute force = %v", d, best)
	}
}

// Property: ClosestOnArc returns a point on the arc whose distance matches
// the sampled minimum.
func TestClosestOnArcProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 500; i++ {
		o := Pt(rng.Float64()*50, rng.Float64()*50)
		l := rng.Float64() * 20
		var end Point
		if rng.Intn(2) == 0 {
			end = o.Add(Pt(l, l)) // slope +1
		} else {
			end = o.Add(Pt(l, -l)) // slope -1
		}
		a := arcBetween(o, end)
		p := Pt(rng.Float64()*100-25, rng.Float64()*100-25)
		cp := ClosestOnArc(a, p)
		best := math.Inf(1)
		for s := 0; s <= 200; s++ {
			best = math.Min(best, a.Sample(float64(s)/200).Dist(p))
		}
		if cp.Dist(p) > best+1e-6 {
			t.Fatalf("ClosestOnArc %v dist %v > sampled best %v", cp, cp.Dist(p), best)
		}
	}
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 1e6)
}

func TestPointFinite(t *testing.T) {
	if !Pt(-3, 1e300).Finite() || !Pt(math.Copysign(0, -1), 0).Finite() {
		t.Fatal("finite point reported non-finite")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Pt(bad, 0).Finite() || Pt(0, bad).Finite() {
			t.Fatalf("point with %v reported finite", bad)
		}
	}
}

// Eq reports whether p and q coincide within tolerance eps.
func (p Point) Eq(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}
