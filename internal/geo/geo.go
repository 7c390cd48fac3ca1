// Package geo provides the planar geometry kernel used throughout the
// continuous query processor: points, rectangles, circles, segments,
// velocity vectors, and time-parameterized motion.
//
// All coordinates are float64 in an application-defined space (the
// benchmarks use the unit square [0,1)²). Time is expressed as float64
// seconds; the engine treats it as an opaque monotonically increasing
// clock.
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by the vector v.
func (p Point) Add(v Vector) Point { return Point{p.X + v.DX, p.Y + v.DY} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Vector { return Vector{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in nearest-neighbor
// search loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4g,%.4g)", p.X, p.Y) }

// Vector is a displacement or velocity in the plane. As a velocity its
// components are space units per second.
type Vector struct {
	DX, DY float64
}

// Vec is shorthand for Vector{dx, dy}.
func Vec(dx, dy float64) Vector { return Vector{DX: dx, DY: dy} }

// Scale returns v multiplied by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.DX * s, v.DY * s} }

// Add returns the component-wise sum of v and w.
func (v Vector) Add(w Vector) Vector { return Vector{v.DX + w.DX, v.DY + w.DY} }

// Len returns the Euclidean length of v.
func (v Vector) Len() float64 { return math.Hypot(v.DX, v.DY) }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vector) Norm() Vector {
	l := v.Len()
	if l == 0 {
		return v
	}
	return Vector{v.DX / l, v.DY / l}
}

// Rect is an axis-aligned rectangle. A Rect is valid when MinX ≤ MaxX and
// MinY ≤ MaxY; the rectangle is closed on all sides. The zero Rect is the
// degenerate point at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R constructs the rectangle with the given corners, normalizing the
// coordinate order so the result is always valid.
func R(x1, y1, x2, y2 float64) Rect {
	if x2 < x1 {
		x1, x2 = x2, x1
	}
	if y2 < y1 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// RectAround returns the square of side 2r centered at c, the bounding box
// of the circle (c, r).
func RectAround(c Point, r float64) Rect {
	return Rect{c.X - r, c.Y - r, c.X + r, c.Y + r}
}

// RectAt returns the square of side `side` centered at c.
func RectAt(c Point, side float64) Rect {
	h := side / 2
	return Rect{c.X - h, c.Y - h, c.X + h, c.Y + h}
}

// Valid reports whether r has non-negative extent on both axes.
func (r Rect) Valid() bool { return r.MinX <= r.MaxX && r.MinY <= r.MaxY }

// Empty reports whether r has zero area (degenerate on at least one axis).
func (r Rect) Empty() bool { return r.MinX >= r.MaxX || r.MinY >= r.MaxY }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Center returns the midpoint of r.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// Contains reports whether p lies inside r (boundaries included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point (touching
// boundaries count).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersect returns the intersection of r and s. If they do not intersect
// the second result is false and the first is the zero Rect.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if !out.Valid() {
		return Rect{}, false
	}
	return out, true
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand returns r grown by d on every side (shrunk when d is negative;
// the result may become invalid).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// it is 0 when p is inside r.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 returns the squared minimum distance from p to r.
func (r Rect) MinDist2(p Point) float64 {
	dx := axisDist(p.X, r.MinX, r.MaxX)
	dy := axisDist(p.Y, r.MinY, r.MaxY)
	return dx*dx + dy*dy
}

func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// Difference returns r − s as a set of up to four disjoint rectangles.
// The pieces cover every point that is in r but not in the interior of s.
// If r ∩ s has no area the result is {r}, even for an r of no area (a
// segment or a point), which is a closed region too; if s covers an r of
// positive area the result is empty. dst is reused when its capacity suffices.
//
// This is the primitive behind the paper's A_old − A_new / A_new − A_old
// incremental evaluation areas.
func (r Rect) Difference(s Rect, dst []Rect) []Rect {
	dst = dst[:0]
	in, ok := r.Intersect(s)
	if !ok || in.Empty() {
		return append(dst, r)
	}
	// Left slab.
	if r.MinX < in.MinX {
		dst = append(dst, Rect{r.MinX, r.MinY, in.MinX, r.MaxY})
	}
	// Right slab.
	if in.MaxX < r.MaxX {
		dst = append(dst, Rect{in.MaxX, r.MinY, r.MaxX, r.MaxY})
	}
	// Bottom slab (between the vertical slabs).
	if r.MinY < in.MinY {
		dst = append(dst, Rect{in.MinX, r.MinY, in.MaxX, in.MinY})
	}
	// Top slab.
	if in.MaxY < r.MaxY {
		dst = append(dst, Rect{in.MinX, in.MaxY, in.MaxX, r.MaxY})
	}
	return dst
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.4g,%.4g]x[%.4g,%.4g]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// Circle is a disk with center C and radius R; boundaries are included.
type Circle struct {
	C Point
	R float64
}

// BBox returns the axis-aligned bounding box of the circle.
func (c Circle) BBox() Rect { return RectAround(c.C, c.R) }

// epsilon absorbs floating-point noise in closed-region membership tests.
const epsilon = 1e-12
