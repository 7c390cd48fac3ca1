package geo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(3, 4), 5},
		{Pt(1, 1), Pt(1, 1), 0},
		{Pt(-1, -1), Pt(2, 3), 5},
		{Pt(0, 0), Pt(0, 2), 2},
	}
	for _, tc := range tests {
		if got := tc.p.Dist(tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want)
		}
		if got := tc.p.Dist2(tc.q); math.Abs(got-tc.want*tc.want) > 1e-12 {
			t.Errorf("Dist2(%v,%v) = %v, want %v", tc.p, tc.q, got, tc.want*tc.want)
		}
	}
}

func TestVectorOps(t *testing.T) {
	v := Vec(3, 4)
	if got := v.Len(); got != 5 {
		t.Errorf("Len = %v, want 5", got)
	}
	if got := v.Scale(2); got != Vec(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Add(Vec(-3, -4)); got != (Vector{}) {
		t.Errorf("Add = %v, want zero", got)
	}
	n := v.Norm()
	if math.Abs(n.Len()-1) > 1e-12 {
		t.Errorf("Norm length = %v", n.Len())
	}
	if Vec(0, 0).Norm() != (Vector{}) {
		t.Error("Norm of zero vector should stay zero")
	}
	if got := Pt(1, 2).Add(Vec(1, 1)); got != Pt(2, 3) {
		t.Errorf("Point.Add = %v", got)
	}
	if got := Pt(2, 3).Sub(Pt(1, 2)); got != Vec(1, 1) {
		t.Errorf("Point.Sub = %v", got)
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(2, 3, 0, 1)
	want := Rect{0, 1, 2, 3}
	if r != want {
		t.Errorf("R normalized = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Error("normalized rect should be valid")
	}
}

func TestRectPredicates(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.Contains(Pt(5, 5)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(10, 10)) {
		t.Error("Contains should include interior and boundary")
	}
	if r.Contains(Pt(10.01, 5)) {
		t.Error("Contains should exclude exterior")
	}
	if !r.Intersects(R(5, 5, 15, 15)) {
		t.Error("overlapping rects should intersect")
	}
	if !r.Intersects(R(10, 10, 20, 20)) {
		t.Error("touching rects should intersect")
	}
	if r.Intersects(R(11, 11, 20, 20)) {
		t.Error("disjoint rects should not intersect")
	}
	if !r.ContainsRect(R(1, 1, 9, 9)) {
		t.Error("ContainsRect inner")
	}
	if r.ContainsRect(R(1, 1, 11, 9)) {
		t.Error("ContainsRect overflow")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	in, ok := a.Intersect(b)
	if !ok || in != R(5, 5, 10, 10) {
		t.Errorf("Intersect = %v,%v", in, ok)
	}
	if _, ok := a.Intersect(R(20, 20, 30, 30)); ok {
		t.Error("disjoint Intersect should fail")
	}
	if u := a.Union(b); u != R(0, 0, 15, 15) {
		t.Errorf("Union = %v", u)
	}
}

func TestRectGeometry(t *testing.T) {
	r := R(0, 0, 4, 2)
	if r.Width() != 4 || r.Height() != 2 {
		t.Errorf("dims: %v %v", r.Width(), r.Height())
	}
	if c := r.Center(); c != Pt(2, 1) {
		t.Errorf("Center = %v", c)
	}
	if g := r.Expand(1); g != R(-1, -1, 5, 3) {
		t.Errorf("Expand = %v", g)
	}
}

func TestRectMinMaxDist(t *testing.T) {
	r := R(0, 0, 10, 10)
	tests := []struct {
		p   Point
		min float64
	}{
		{Pt(5, 5), 0},
		{Pt(13, 14), 5},
		{Pt(-3, 5), 3},
		{Pt(0, 0), 0},
	}
	for _, tc := range tests {
		if got := r.MinDist(tc.p); math.Abs(got-tc.min) > 1e-12 {
			t.Errorf("MinDist(%v) = %v, want %v", tc.p, got, tc.min)
		}
	}
}

func TestRectAroundAndAt(t *testing.T) {
	if r := RectAround(Pt(5, 5), 2); r != R(3, 3, 7, 7) {
		t.Errorf("RectAround = %v", r)
	}
	if r := RectAt(Pt(5, 5), 2); r != R(4, 4, 6, 6) {
		t.Errorf("RectAt = %v", r)
	}
}

func TestRectDifferenceBasic(t *testing.T) {
	r := R(0, 0, 10, 10)

	// Disjoint: result is r itself.
	out := r.Difference(R(20, 20, 30, 30), nil)
	if len(out) != 1 || out[0] != r {
		t.Errorf("disjoint difference = %v", out)
	}

	// Covered: empty.
	if out := r.Difference(R(-1, -1, 11, 11), nil); len(out) != 0 {
		t.Errorf("covered difference = %v", out)
	}

	// A segment is a closed region too: disjoint from s, or meeting only
	// its edge, it is its own difference.
	for _, seg := range []Rect{R(2, 0, 2, 10), R(5, 0, 5, 10)} {
		if out := seg.Difference(R(5, 5, 15, 15), nil); len(out) != 1 || out[0] != seg {
			t.Errorf("segment %v difference = %v", seg, out)
		}
	}

	// Corner overlap: 2 pieces (L-shape).
	out = r.Difference(R(5, 5, 15, 15), nil)
	if len(out) != 2 {
		t.Fatalf("corner difference: %d pieces %v", len(out), out)
	}

	// Hole in the middle: 4 pieces.
	out = r.Difference(R(3, 3, 7, 7), nil)
	if len(out) != 4 {
		t.Fatalf("hole difference: %d pieces", len(out))
	}
}

// TestRectDifferenceProperty checks, by point sampling, that Difference
// covers exactly r − s: every sampled point is in some piece iff it is in
// r and not in the interior of s, and pieces never overlap (positive
// total-area check).
func TestRectDifferenceProperty(t *testing.T) {
	area := func(r Rect) float64 { return r.Width() * r.Height() }
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		r := R(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		s := R(rng.Float64()*10, rng.Float64()*10, rng.Float64()*10, rng.Float64()*10)
		pieces := r.Difference(s, nil)

		// Area conservation: area(r − s) == area(r) − area(r ∩ s).
		var got float64
		for _, p := range pieces {
			got += area(p)
		}
		want := area(r)
		if in, ok := r.Intersect(s); ok {
			want -= area(in)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("area mismatch: r=%v s=%v got=%v want=%v", r, s, got, want)
		}

		// Pairwise disjoint interiors.
		for i := 0; i < len(pieces); i++ {
			for j := i + 1; j < len(pieces); j++ {
				if in, ok := pieces[i].Intersect(pieces[j]); ok && area(in) > 1e-9 {
					t.Fatalf("overlapping pieces %v and %v", pieces[i], pieces[j])
				}
			}
		}

		// Membership check by sampling.
		for k := 0; k < 20; k++ {
			p := Pt(rng.Float64()*10, rng.Float64()*10)
			inPieces := false
			for _, pc := range pieces {
				if pc.Contains(p) {
					inPieces = true
					break
				}
			}
			strictlyInS := p.X > s.MinX && p.X < s.MaxX && p.Y > s.MinY && p.Y < s.MaxY
			wantIn := r.Contains(p) && !strictlyInS
			// Boundary points may legitimately fall either way; skip them.
			onBoundary := p.X == s.MinX || p.X == s.MaxX || p.Y == s.MinY || p.Y == s.MaxY
			if !onBoundary && inPieces != wantIn {
				t.Fatalf("membership: p=%v r=%v s=%v inPieces=%v want=%v", p, r, s, inPieces, wantIn)
			}
		}
	}
}

func TestCircle(t *testing.T) {
	c := Circle{C: Pt(5, 5), R: 2}
	if c.BBox() != R(3, 3, 7, 7) {
		t.Errorf("BBox = %v", c.BBox())
	}
}

// quickCfg bounds testing/quick inputs into a sane coordinate range.
var quickCfg = &quick.Config{
	MaxCount: 300,
	Values: func(vals []reflect.Value, rng *rand.Rand) {
		for i := range vals {
			vals[i] = reflect.ValueOf(rng.Float64()*20 - 10)
		}
	},
}

func TestQuickUnionContains(t *testing.T) {
	f := func(a1, b1, a2, b2, c1, d1, c2, d2 float64) bool {
		r, s := R(a1, b1, a2, b2), R(c1, d1, c2, d2)
		u := r.Union(s)
		return u.ContainsRect(r) && u.ContainsRect(s)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickIntersectSymmetric(t *testing.T) {
	f := func(a1, b1, a2, b2, c1, d1, c2, d2 float64) bool {
		r, s := R(a1, b1, a2, b2), R(c1, d1, c2, d2)
		i1, ok1 := r.Intersect(s)
		i2, ok2 := s.Intersect(r)
		return ok1 == ok2 && i1 == i2 && ok1 == r.Intersects(s)
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestQuickMinDistConsistent(t *testing.T) {
	f := func(a1, b1, a2, b2, px, py float64) bool {
		r := R(a1, b1, a2, b2)
		p := Pt(px, py)
		min := r.MinDist(p)
		if min < 0 || min > p.Dist(r.Center())+1e-9 {
			return false
		}
		if r.Contains(p) != (min == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}
