package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestMotionAt(t *testing.T) {
	m := Motion{Start: Pt(0, 0), Vel: Vec(1, 2), T0: 10}
	if got := m.At(10); got != Pt(0, 0) {
		t.Errorf("At(T0) = %v", got)
	}
	if got := m.At(12); got != Pt(2, 4) {
		t.Errorf("At(12) = %v", got)
	}
	if got := m.At(9); got != Pt(-1, -2) {
		t.Errorf("At(9) = %v (backwards extrapolation)", got)
	}
}

func TestMotionIntersectsRectDuring(t *testing.T) {
	r := R(4, 4, 6, 6)
	tests := []struct {
		name   string
		m      Motion
		t1, t2 float64
		want   bool
	}{
		{"crosses during window", Motion{Pt(0, 5), Vec(1, 0), 0}, 4, 6, true},
		{"crosses before window", Motion{Pt(0, 5), Vec(1, 0), 0}, 7, 9, false},
		{"crosses after window", Motion{Pt(0, 5), Vec(1, 0), 0}, 0, 3, false},
		{"stationary inside", Motion{Pt(5, 5), Vec(0, 0), 0}, 0, 100, true},
		{"stationary outside", Motion{Pt(1, 1), Vec(0, 0), 0}, 0, 100, false},
		{"diagonal through corner region", Motion{Pt(0, 0), Vec(1, 1), 0}, 4, 6, true},
		{"parallel misses", Motion{Pt(0, 7), Vec(1, 0), 0}, 0, 100, false},
		{"enters exactly at window end", Motion{Pt(0, 5), Vec(1, 0), 0}, 0, 4, true},
		{"reversed window normalizes", Motion{Pt(0, 5), Vec(1, 0), 0}, 6, 4, true},
		{"nonzero T0", Motion{Pt(0, 5), Vec(1, 0), 100}, 104, 106, true},
	}
	for _, tc := range tests {
		if got := tc.m.IntersectsRectDuring(r, tc.t1, tc.t2); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestMotionIntersectsSampling cross-validates the analytic predicate
// against dense time sampling on random motions.
func TestMotionIntersectsSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := R(0.3, 0.3, 0.7, 0.7)
	for i := 0; i < 400; i++ {
		m := Motion{
			Start: Pt(rng.Float64(), rng.Float64()),
			Vel:   Vec(rng.Float64()*0.2-0.1, rng.Float64()*0.2-0.1),
			T0:    0,
		}
		t1 := rng.Float64() * 5
		t2 := t1 + rng.Float64()*5
		got := m.IntersectsRectDuring(r, t1, t2)
		sampled := false
		for k := 0; k <= 2000; k++ {
			tt := t1 + (t2-t1)*float64(k)/2000
			if r.Contains(m.At(tt)) {
				sampled = true
				break
			}
		}
		// Sampling can only under-detect (miss a brief crossing); it must
		// never detect an intersection the analytic test missed.
		if sampled && !got {
			t.Fatalf("analytic test missed intersection: m=%+v window=[%v,%v]", m, t1, t2)
		}
		if got && !sampled {
			// Verify it is a near-boundary graze rather than a real bug:
			// distance from the swept segment to the rect must be tiny.
			seg := Segment{A: m.At(t1), B: m.At(t2)}
			d := math.Min(
				math.Min(r.MinDist(seg.A), r.MinDist(seg.B)),
				segRectGap(seg, r))
			if d > 1e-6 {
				t.Fatalf("analytic intersection not confirmed by sampling: m=%+v window=[%v,%v]", m, t1, t2)
			}
		}
	}
}

// segRectGap approximates the gap between a segment and a rectangle by
// sampling the segment.
func segRectGap(s Segment, r Rect) float64 {
	best := math.Inf(1)
	for k := 0; k <= 200; k++ {
		d := r.MinDist(s.At(float64(k) / 200))
		if d < best {
			best = d
		}
	}
	return best
}

func TestSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 4)}
	if s.At(0) != s.A || s.At(1) != s.B {
		t.Errorf("At endpoints = %v, %v", s.At(0), s.At(1))
	}
	if s.At(0.5) != Pt(5, 2) {
		t.Errorf("At(0.5) = %v", s.At(0.5))
	}
}
