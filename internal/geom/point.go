// Package geom provides the planar Manhattan geometry primitives used by
// clock routing: points, bounding boxes, Manhattan arcs (segments with slope
// ±1 in the rectilinear metric) and tilted rectangle regions (TRRs).
//
// Deferred-Merge Embedding (DME) operates in the Manhattan metric, where the
// locus of points at a fixed distance from a point is a diamond (a tilted
// square). All DME region arithmetic in this package is carried out in
// "tilted coordinates" u = x+y, v = x-y, in which diamonds become axis-aligned
// rectangles and Manhattan arcs become axis-aligned segments.
package geom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Point is a location in µm on the die plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Manhattan (L1) distance between p and q. Clock wirelength
// and Elmore wire delays are both functions of this metric.
func (p Point) Dist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(q.Y-p.Y)
}

// Lerp returns the point a fraction t of the way from p to q along the
// straight segment pq. t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Finite reports whether both coordinates are finite: no NaN, no ±Inf.
// Every placement entry point requires it, because ordering and distance
// arithmetic on a non-finite coordinate fails far from the bad input.
func (p Point) Finite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

func (p Point) String() string { return fmt.Sprintf("(%.4g,%.4g)", p.X, p.Y) }

// Tilted maps p into tilted coordinates (u,v) = (x+y, x-y). In this frame the
// Manhattan metric becomes the Chebyshev (L∞) metric scaled by 1: for points
// a, b, dist_L1(a,b) = max(|ua-ub|, |va-vb|).
func (p Point) Tilted() Point { return Point{p.X + p.Y, p.X - p.Y} }

// FromTilted maps a tilted-coordinate point back to the original frame.
func FromTilted(t Point) Point { return Point{(t.X + t.Y) / 2, (t.X - t.Y) / 2} }

// BBox is an axis-aligned bounding box. The zero BBox is treated as empty
// until grown; use NewBBox or Grow.
type BBox struct {
	MinX, MinY, MaxX, MaxY float64
	valid                  bool
}

// NewBBox returns the bounding box of the given points.
func NewBBox(pts ...Point) BBox {
	var b BBox
	for _, p := range pts {
		b.Grow(p)
	}
	return b
}

// Grow extends b to include p.
func (b *BBox) Grow(p Point) {
	if !b.valid {
		b.MinX, b.MinY, b.MaxX, b.MaxY = p.X, p.Y, p.X, p.Y
		b.valid = true
		return
	}
	b.MinX = math.Min(b.MinX, p.X)
	b.MinY = math.Min(b.MinY, p.Y)
	b.MaxX = math.Max(b.MaxX, p.X)
	b.MaxY = math.Max(b.MaxY, p.Y)
}

// Valid reports whether the box contains at least one point.
func (b BBox) Valid() bool { return b.valid }

// GobEncode serializes the box INCLUDING the unexported emptiness flag;
// without it a gob round-trip would silently turn every non-empty box into
// the empty one, breaking Grow/Valid on restored state (the serve
// persistence tier snapshots retained ECO bases with gob).
func (b BBox) GobEncode() ([]byte, error) {
	out := make([]byte, 33)
	binary.LittleEndian.PutUint64(out[0:8], math.Float64bits(b.MinX))
	binary.LittleEndian.PutUint64(out[8:16], math.Float64bits(b.MinY))
	binary.LittleEndian.PutUint64(out[16:24], math.Float64bits(b.MaxX))
	binary.LittleEndian.PutUint64(out[24:32], math.Float64bits(b.MaxY))
	if b.valid {
		out[32] = 1
	}
	return out, nil
}

// GobDecode is the inverse of GobEncode.
func (b *BBox) GobDecode(data []byte) error {
	if len(data) != 33 {
		return fmt.Errorf("geom: bad BBox gob payload: %d bytes", len(data))
	}
	b.MinX = math.Float64frombits(binary.LittleEndian.Uint64(data[0:8]))
	b.MinY = math.Float64frombits(binary.LittleEndian.Uint64(data[8:16]))
	b.MaxX = math.Float64frombits(binary.LittleEndian.Uint64(data[16:24]))
	b.MaxY = math.Float64frombits(binary.LittleEndian.Uint64(data[24:32]))
	b.valid = data[32] == 1
	return nil
}

// W returns the box width.
func (b BBox) W() float64 { return b.MaxX - b.MinX }

// H returns the box height.
func (b BBox) H() float64 { return b.MaxY - b.MinY }

// Contains reports whether p lies inside b (inclusive, with tolerance eps).
func (b BBox) Contains(p Point, eps float64) bool {
	return p.X >= b.MinX-eps && p.X <= b.MaxX+eps && p.Y >= b.MinY-eps && p.Y <= b.MaxY+eps
}

// Clamp returns p moved to the nearest point inside b.
func (b BBox) Clamp(p Point) Point {
	return Point{clamp(p.X, b.MinX, b.MaxX), clamp(p.Y, b.MinY, b.MaxY)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
