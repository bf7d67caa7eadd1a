package geom

import (
	"fmt"
	"math"
)

// Arc is a Manhattan arc: a (possibly degenerate) segment whose slope in the
// original frame is ±1, or a single point. In tilted coordinates an Arc is an
// axis-aligned segment, which is how it is stored: (U0,V0)-(U1,V1) with
// either U0==U1 or V0==V1.
//
// Merging segments in DME are Manhattan arcs; the tapping-point search and
// the distance computations below all run in the tilted frame where they
// reduce to interval arithmetic.
type Arc struct {
	U0, V0, U1, V1 float64
}

// PointArc returns the degenerate arc consisting of the single point p
// (original frame).
func PointArc(p Point) Arc {
	t := p.Tilted()
	return Arc{t.X, t.Y, t.X, t.Y}
}

// Len returns the Manhattan length of the arc (the L1 distance between its
// endpoints in the original frame). For an axis-aligned tilted segment this
// equals max(|du|, |dv|) = |du|+|dv| since one of them is zero.
func (a Arc) Len() float64 {
	return math.Abs(a.U0-a.U1) + math.Abs(a.V0-a.V1)
}

// A returns one endpoint in the original frame.
func (a Arc) A() Point { return FromTilted(Point{a.U0, a.V0}) }

// B returns the other endpoint in the original frame.
func (a Arc) B() Point { return FromTilted(Point{a.U1, a.V1}) }

// Sample returns the point a fraction t∈[0,1] along the arc (original frame).
func (a Arc) Sample(t float64) Point {
	return FromTilted(Point{a.U0 + (a.U1-a.U0)*t, a.V0 + (a.V1-a.V0)*t})
}

func (a Arc) String() string {
	return fmt.Sprintf("arc[%v--%v]", a.A(), a.B())
}

// canonical returns the arc with U0<=U1 and V0<=V1 (safe because one of the
// two extents is zero for a valid Manhattan arc).
func (a Arc) canonical() Arc {
	if a.U0 > a.U1 {
		a.U0, a.U1 = a.U1, a.U0
	}
	if a.V0 > a.V1 {
		a.V0, a.V1 = a.V1, a.V0
	}
	return a
}

// TRR is a tilted rectangle region: the Minkowski sum of a Manhattan arc
// (its core) with a Manhattan disk of the given radius. In tilted
// coordinates a TRR is an axis-aligned rectangle [ulo,uhi]×[vlo,vhi].
type TRR struct {
	ULo, UHi, VLo, VHi float64
}

// NewTRR builds the TRR with the given core arc and radius.
func NewTRR(core Arc, radius float64) TRR {
	c := core.canonical()
	return TRR{c.U0 - radius, c.U1 + radius, c.V0 - radius, c.V1 + radius}
}

// Empty reports whether the region is empty.
func (t TRR) Empty() bool { return t.ULo > t.UHi || t.VLo > t.VHi }

// Intersect returns the intersection of two TRRs. The intersection of two
// tilted rectangles is a tilted rectangle (possibly empty).
func (t TRR) Intersect(o TRR) TRR {
	return TRR{
		ULo: math.Max(t.ULo, o.ULo),
		UHi: math.Min(t.UHi, o.UHi),
		VLo: math.Max(t.VLo, o.VLo),
		VHi: math.Min(t.VHi, o.VHi),
	}
}

// Contains reports whether the original-frame point p lies in the region.
func (t TRR) Contains(p Point, eps float64) bool {
	tp := p.Tilted()
	return tp.X >= t.ULo-eps && tp.X <= t.UHi+eps && tp.Y >= t.VLo-eps && tp.Y <= t.VHi+eps
}

// CoreArc returns a maximal Manhattan arc inside the TRR, preferring the
// longer extent. Degenerate TRRs yield point arcs. This is how DME turns the
// intersection of two expanded merging regions back into a merging segment:
// for valid DME merges the intersection is itself a Manhattan arc (one of the
// tilted extents is zero up to floating-point noise), and CoreArc recovers
// it. When numerical noise leaves a thin 2-D sliver we collapse the shorter
// extent to its midline.
func (t TRR) CoreArc() Arc {
	du := t.UHi - t.ULo
	dv := t.VHi - t.VLo
	if du >= dv {
		vm := (t.VLo + t.VHi) / 2
		return Arc{t.ULo, vm, t.UHi, vm}
	}
	um := (t.ULo + t.UHi) / 2
	return Arc{um, t.VLo, um, t.VHi}
}

// ArcDist returns the minimum Manhattan distance between two Manhattan arcs.
func ArcDist(a, b Arc) float64 {
	ca, cb := a.canonical(), b.canonical()
	du := intervalGap(ca.U0, ca.U1, cb.U0, cb.U1)
	dv := intervalGap(ca.V0, ca.V1, cb.V0, cb.V1)
	return math.Max(du, dv)
}

// ClosestOnArc returns the point of arc a closest (in Manhattan distance) to
// the original-frame point p.
func ClosestOnArc(a Arc, p Point) Point {
	c := a.canonical()
	tp := p.Tilted()
	u := clamp(tp.X, c.U0, c.U1)
	v := clamp(tp.Y, c.V0, c.V1)
	return FromTilted(Point{u, v})
}

// ClosestBetweenArcs returns a pair of points (pa on a, pb on b) realizing
// the minimum Manhattan distance between the two arcs.
func ClosestBetweenArcs(a, b Arc) (Point, Point) {
	ca, cb := a.canonical(), b.canonical()
	ua, ub := closestIntervalPoints(ca.U0, ca.U1, cb.U0, cb.U1)
	va, vb := closestIntervalPoints(ca.V0, ca.V1, cb.V0, cb.V1)
	return FromTilted(Point{ua, va}), FromTilted(Point{ub, vb})
}

// intervalGap returns the gap between intervals [a0,a1] and [b0,b1]
// (0 if they overlap).
func intervalGap(a0, a1, b0, b1 float64) float64 {
	if a1 < b0 {
		return b0 - a1
	}
	if b1 < a0 {
		return a0 - b1
	}
	return 0
}

// closestIntervalPoints returns the pair (xa in [a0,a1], xb in [b0,b1]) with
// minimum |xa-xb|; when the intervals overlap both points coincide in the
// overlap.
func closestIntervalPoints(a0, a1, b0, b1 float64) (float64, float64) {
	if a1 < b0 {
		return a1, b0
	}
	if b1 < a0 {
		return a0, b1
	}
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	m := (lo + hi) / 2
	return m, m
}
