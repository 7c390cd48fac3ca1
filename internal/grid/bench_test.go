package grid

import (
	"math/rand"
	"testing"

	"cqp/internal/geo"
)

func benchGrid(n, objects, regions int, seed int64) *Grid {
	g := New(geo.R(0, 0, 1, 1), n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < objects; i++ {
		g.InsertObject(uint64(i), geo.Pt(rng.Float64(), rng.Float64()))
	}
	for j := 0; j < regions; j++ {
		g.InsertRegion(uint64(1<<32+j), geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.01))
	}
	return g
}

func BenchmarkGridMoveObject(b *testing.B) {
	g := benchGrid(64, 100000, 0, 1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(rng.Intn(100000))
		old := geo.Pt(rng.Float64(), rng.Float64())
		g.MoveObject(id, old, geo.Pt(rng.Float64(), rng.Float64()))
	}
}

func BenchmarkGridMoveRegionSameCells(b *testing.B) {
	g := benchGrid(64, 0, 10000, 1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(1<<32 + rng.Intn(10000))
		c := geo.Pt(0.3+rng.Float64()*0.4, 0.3+rng.Float64()*0.4)
		r := geo.RectAt(c, 0.01)
		// Sub-cell-width move: exercises the in-place fast path.
		g.MoveRegion(id, r, geo.RectAt(c.Add(geo.Vec(0.0005, 0.0005)), 0.01))
	}
}

func BenchmarkGridVisitObjectsIn(b *testing.B) {
	g := benchGrid(64, 100000, 0, 1)
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		r := geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.02)
		g.VisitObjectsIn(r, func(uint64, geo.Point) bool { count++; return true })
	}
	_ = count
}

func BenchmarkGridKNearest(b *testing.B) {
	g := benchGrid(64, 100000, 0, 1)
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.KNearest(geo.Pt(rng.Float64(), rng.Float64()), 10, nil)
	}
}
