package geo

import "math"

// Motion is a time-parameterized linear movement: position(t) = Start +
// Vel·(t − T0). It represents the trajectory of a predictive object that
// reported location Start and velocity Vel at time T0 (the paper's
// "velocity vector" movement representation).
type Motion struct {
	Start Point
	Vel   Vector
	T0    float64
}

// At returns the position of the motion at time t. Times before T0
// extrapolate backwards; the engine never asks for them, but the algebra
// is well defined.
func (m Motion) At(t float64) Point {
	return m.Start.Add(m.Vel.Scale(t - m.T0))
}

// IntersectsRectDuring reports whether the moving point is inside r at any
// instant of the closed time window [t1, t2]. This is the predicate behind
// predictive range queries ("objects that will intersect the region at a
// future time"): the query window is joined against the line
// representation of the moving object.
func (m Motion) IntersectsRectDuring(r Rect, t1, t2 float64) bool {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	// Clip the time interval against each slab x∈[MinX,MaxX], y∈[MinY,MaxY]
	// (Liang–Barsky in time parameter space).
	lo, hi := t1, t2
	var ok bool
	if lo, hi, ok = clipAxis(m.Start.X, m.Vel.DX, r.MinX, r.MaxX, lo, hi, m.T0); !ok {
		return false
	}
	if _, _, ok = clipAxis(m.Start.Y, m.Vel.DY, r.MinY, r.MaxY, lo, hi, m.T0); !ok {
		return false
	}
	return true
}

// clipAxis intersects {t : lo ≤ t ≤ hi and min ≤ s + v·(t−t0) ≤ max},
// returning the clipped interval and whether it is non-empty.
func clipAxis(s, v, min, max, lo, hi, t0 float64) (float64, float64, bool) {
	if v == 0 {
		if s < min-epsilon || s > max+epsilon {
			return 0, 0, false
		}
		return lo, hi, true
	}
	tEnter := t0 + (min-s)/v
	tExit := t0 + (max-s)/v
	if tEnter > tExit {
		tEnter, tExit = tExit, tEnter
	}
	lo = math.Max(lo, tEnter)
	hi = math.Min(hi, tExit)
	return lo, hi, lo <= hi+epsilon
}

// SweptBBox returns the bounding box of the trajectory over [t1, t2]: the
// union of the positions at the window endpoints. Because the motion is
// linear the swept path is a segment and this box bounds it exactly.
func (m Motion) SweptBBox(t1, t2 float64) Rect {
	a, b := m.At(t1), m.At(t2)
	return R(a.X, a.Y, b.X, b.Y)
}

// Segment is a straight line segment from A to B.
type Segment struct {
	A, B Point
}

// At returns the point at parameter u ∈ [0,1] along the segment.
func (s Segment) At(u float64) Point {
	return Point{s.A.X + u*(s.B.X-s.A.X), s.A.Y + u*(s.B.Y-s.A.Y)}
}
