package grid

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cqp/internal/geo"
)

func unitGrid(n int) *Grid { return New(geo.R(0, 0, 1, 1), n) }

func TestNewPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"zero cells", func() { New(geo.R(0, 0, 1, 1), 0) }},
		{"empty bounds", func() { New(geo.R(0, 0, 0, 1), 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestCellIndex(t *testing.T) {
	g := unitGrid(4)
	tests := []struct {
		p    geo.Point
		want int
	}{
		{geo.Pt(0, 0), 0},
		{geo.Pt(0.99, 0.99), 15},
		{geo.Pt(0.26, 0.01), 1},
		{geo.Pt(0.01, 0.26), 4},
		// Clamping outside the bounds.
		{geo.Pt(-5, -5), 0},
		{geo.Pt(5, 5), 15},
		// The far edge belongs to the last cell.
		{geo.Pt(1, 1), 15},
		// Huge and infinite coordinates clamp to the far edge; NaN maps
		// to cell 0.
		{geo.Pt(1e300, 1e300), 15},
		{geo.Pt(math.Inf(1), 0.5), 11},
		{geo.Pt(math.NaN(), math.NaN()), 0},
	}
	for _, tc := range tests {
		if got := g.CellIndex(tc.p); got != tc.want {
			t.Errorf("CellIndex(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestCellRectRoundTrip(t *testing.T) {
	g := unitGrid(8)
	for ci := 0; ci < 64; ci++ {
		r := g.CellRect(ci)
		if got := g.CellIndex(r.Center()); got != ci {
			t.Errorf("cell %d: center %v maps to %d", ci, r.Center(), got)
		}
	}
}

func TestObjectLifecycle(t *testing.T) {
	g := unitGrid(4)
	g.InsertObject(1, geo.Pt(0.1, 0.1))
	g.InsertObject(2, geo.Pt(0.9, 0.9))
	if g.NumObjects() != 2 {
		t.Fatalf("NumObjects = %d", g.NumObjects())
	}

	// Duplicate insert refreshes, does not double count.
	g.InsertObject(1, geo.Pt(0.12, 0.12))
	if g.NumObjects() != 2 {
		t.Fatalf("NumObjects after dup = %d", g.NumObjects())
	}

	if !g.RemoveObject(1, geo.Pt(0.12, 0.12)) {
		t.Error("RemoveObject existing = false")
	}
	if g.RemoveObject(1, geo.Pt(0.12, 0.12)) {
		t.Error("RemoveObject missing = true")
	}
	if g.NumObjects() != 1 {
		t.Fatalf("NumObjects after remove = %d", g.NumObjects())
	}
}

func TestMoveObject(t *testing.T) {
	g := unitGrid(4)
	g.InsertObject(7, geo.Pt(0.1, 0.1))

	// Same-cell move.
	oc, nc := g.MoveObject(7, geo.Pt(0.1, 0.1), geo.Pt(0.2, 0.2))
	if oc != nc {
		t.Errorf("same-cell move: %d -> %d", oc, nc)
	}

	// Cross-cell move.
	oc, nc = g.MoveObject(7, geo.Pt(0.2, 0.2), geo.Pt(0.9, 0.9))
	if oc == nc {
		t.Error("cross-cell move reported same cell")
	}
	if g.NumObjects() != 1 {
		t.Errorf("NumObjects = %d", g.NumObjects())
	}
	found := 0
	g.VisitObjectsIn(geo.R(0.75, 0.75, 1, 1), func(id uint64, p geo.Point) bool {
		if id == 7 {
			found++
		}
		return true
	})
	if found != 1 {
		t.Errorf("object not found at destination (found=%d)", found)
	}

	// Moving an object the grid lost track of re-inserts it.
	g2 := unitGrid(4)
	g2.MoveObject(9, geo.Pt(0.1, 0.1), geo.Pt(0.15, 0.15))
	if g2.NumObjects() != 1 {
		t.Errorf("move-of-unknown should insert; NumObjects = %d", g2.NumObjects())
	}
}

func TestRegionClipping(t *testing.T) {
	g := unitGrid(4) // cells of side 0.25
	r := geo.R(0.2, 0.2, 0.55, 0.3)
	g.InsertRegion(42, r)

	// Overlaps cells (0,0..?) columns 0..2, row 1 for y in [0.2,0.3): rows 0
	// (y<0.25) and 1 (y in [0.25,0.3]).
	if g.NumRegionEntries() != 6 {
		t.Fatalf("NumRegionEntries = %d, want 6", g.NumRegionEntries())
	}

	// Clipped region stored per cell must equal region ∩ cellRect.
	g.VisitCells(r, func(ci int) bool {
		cellR := g.CellRect(ci)
		g.VisitRegionsInCell(ci, func(id uint64, clipped geo.Rect) bool {
			if id != 42 {
				return true
			}
			want, ok := r.Intersect(cellR)
			if !ok || clipped != want {
				t.Errorf("cell %d: clipped = %v, want %v", ci, clipped, want)
			}
			return true
		})
		return true
	})

	g.RemoveRegion(42, r)
	if g.NumRegionEntries() != 0 {
		t.Fatalf("NumRegionEntries after remove = %d", g.NumRegionEntries())
	}
}

func TestRegionBoundaryAligned(t *testing.T) {
	g := unitGrid(4)
	// A region exactly covering one cell is closed: its max edges lie on
	// boundaries whose points CellIndex stores in the next cells, so it
	// registers in the 2×2 cells holding its corners.
	r := geo.R(0.25, 0.25, 0.5, 0.5)
	g.InsertRegion(1, r)
	if g.NumRegionEntries() != 4 {
		t.Errorf("aligned region entries = %d, want 4", g.NumRegionEntries())
	}
	for i, p := range []geo.Point{geo.Pt(0.5, 0.3), geo.Pt(0.3, 0.5), geo.Pt(0.5, 0.5)} {
		g.InsertObject(uint64(i), p)
		found := false
		g.VisitRegionsAt(p, func(id uint64, _ geo.Rect) bool {
			found = found || id == 1
			return true
		})
		if !found {
			t.Errorf("object at %v on the region's edge does not meet it", p)
		}
	}
	if n := g.CountObjectsIn(r); n != 3 {
		t.Errorf("objects on the region's edges = %d, want 3", n)
	}
	g.RemoveRegion(1, r)
	if g.NumRegionEntries() != 0 {
		t.Errorf("entries after remove = %d", g.NumRegionEntries())
	}
}

func TestRegionOutsideBounds(t *testing.T) {
	g := unitGrid(4)
	// A region wholly outside the bounds clamps onto the nearest boundary
	// cell: out-of-bounds geometry must stay indexable so it can meet the
	// boundary-clamped objects of a sub-Region engine (see cellRange).
	g.InsertRegion(5, geo.R(2, 2, 3, 3))
	if g.NumRegionEntries() != 1 {
		t.Errorf("clamped outside region entries = %d, want 1", g.NumRegionEntries())
	}
	g.RemoveRegion(5, geo.R(2, 2, 3, 3)) // must remove the same clamped range
	if g.NumRegionEntries() != 0 {
		t.Error("counter drifted")
	}
	// Partially overlapping region is clipped to the space.
	g.InsertRegion(6, geo.R(0.9, 0.9, 3, 3))
	if g.NumRegionEntries() != 1 {
		t.Errorf("partial overlap entries = %d, want 1", g.NumRegionEntries())
	}
	// An invalid rectangle registers nowhere.
	g.InsertRegion(7, geo.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.2, MaxY: 0.6})
	if g.NumRegionEntries() != 1 {
		t.Errorf("invalid rect entries = %d, want 1", g.NumRegionEntries())
	}
}

func TestMoveRegion(t *testing.T) {
	g := unitGrid(4)
	old := geo.R(0.1, 0.1, 0.2, 0.2)
	new := geo.R(0.6, 0.6, 0.7, 0.7)
	g.InsertRegion(9, old)
	g.MoveRegion(9, old, new)
	if g.NumRegionEntries() != 1 {
		t.Fatalf("entries = %d", g.NumRegionEntries())
	}
	seen := false
	g.VisitRegionsAt(geo.Pt(0.65, 0.65), func(id uint64, _ geo.Rect) bool {
		seen = seen || id == 9
		return true
	})
	if !seen {
		t.Error("region not found at new location")
	}
	g.VisitRegionsAt(geo.Pt(0.15, 0.15), func(id uint64, _ geo.Rect) bool {
		if id == 9 {
			t.Error("region still registered at old location")
		}
		return true
	})
}

func TestVisitObjectsInExactFilter(t *testing.T) {
	g := unitGrid(4)
	g.InsertObject(1, geo.Pt(0.10, 0.10)) // inside query
	g.InsertObject(2, geo.Pt(0.24, 0.24)) // same cell, outside query
	g.InsertObject(3, geo.Pt(0.90, 0.90)) // different cell

	var got []uint64
	g.VisitObjectsIn(geo.R(0.05, 0.05, 0.15, 0.15), func(id uint64, _ geo.Point) bool {
		got = append(got, id)
		return true
	})
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("VisitObjectsIn = %v, want [1]", got)
	}
	if n := g.CountObjectsIn(geo.R(0, 0, 1, 1)); n != 3 {
		t.Errorf("CountObjectsIn all = %d", n)
	}
}

func TestVisitEarlyStop(t *testing.T) {
	g := unitGrid(4)
	for i := uint64(0); i < 10; i++ {
		g.InsertObject(i, geo.Pt(0.1, 0.1))
	}
	n := 0
	g.VisitObjectsIn(geo.R(0, 0, 1, 1), func(uint64, geo.Point) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
	cells := 0
	g.VisitCells(geo.R(0, 0, 1, 1), func(int) bool {
		cells++
		return false
	})
	if cells != 1 {
		t.Errorf("VisitCells early stop visited %d", cells)
	}
}

func TestKNearestBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		g := unitGrid(1 + rng.Intn(16))
		n := 1 + rng.Intn(200)
		// Every other trial places points and focal on a 1/8 lattice,
		// where exact distance ties are common.
		coord := rng.Float64
		if trial%2 == 1 {
			coord = func() float64 { return float64(rng.Intn(9)) / 8 }
		}
		pts := make(map[uint64]geo.Point, n)
		for i := uint64(0); i < uint64(n); i++ {
			// Insert in descending key order, so slab order is not key order.
			key := uint64(n-1) - i
			p := geo.Pt(coord(), coord())
			pts[key] = p
			g.InsertObject(key, p)
		}
		focal := geo.Pt(coord(), coord())
		k := 1 + rng.Intn(12)

		got := g.KNearest(focal, k, nil)

		// Brute force.
		type cand struct {
			id uint64
			d  float64
		}
		var all []cand
		for id, p := range pts {
			all = append(all, cand{id, focal.Dist(p)})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return all[i].id < all[j].id
		})
		wantLen := k
		if n < k {
			wantLen = n
		}
		if len(got) != wantLen {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(got), wantLen)
		}
		for i := range got {
			if got[i].ID != all[i].id || got[i].Dist != all[i].d {
				t.Fatalf("trial %d: neighbour %d = (%d, %v), want (%d, %v)", trial, i, got[i].ID, got[i].Dist, all[i].id, all[i].d)
			}
		}
	}
}

func TestKNearestRankAndEdge(t *testing.T) {
	g := unitGrid(8)
	// Four keys equidistant from the focal point, inserted out of key
	// order: ties go to the smaller rank, whatever the slab order.
	g.InsertObject(3, geo.Pt(0.5, 0.25))
	g.InsertObject(1, geo.Pt(0.75, 0.5))
	g.InsertObject(4, geo.Pt(0.25, 0.5))
	g.InsertObject(2, geo.Pt(0.5, 0.75))
	focal := geo.Pt(0.5, 0.5)
	for _, c := range []struct {
		rank func(uint64) uint64
		want [2]uint64
	}{
		{nil, [2]uint64{1, 2}},
		{func(k uint64) uint64 { return 10 - k }, [2]uint64{4, 3}},
	} {
		got := g.KNearest(focal, 2, c.rank)
		if len(got) != 2 || got[0].ID != c.want[0] || got[1].ID != c.want[1] {
			t.Errorf("tied KNearest = %+v, want IDs %v", got, c.want)
		}
	}
	if got := g.KNearest(geo.Pt(0.5, 0.5), 0, nil); got != nil {
		t.Errorf("k=0 should yield nil, got %v", got)
	}
	if got := g.KNearest(geo.Pt(-4, -4), 3, nil); len(got) != 3 {
		t.Errorf("focal outside bounds: len = %d", len(got))
	}
	empty := unitGrid(4)
	if got := empty.KNearest(geo.Pt(0.5, 0.5), 3, nil); len(got) != 0 {
		t.Errorf("empty grid: %v", got)
	}
}

// TestGridObjectQueryAgreement is a randomized consistency check: for any
// registered region and set of objects, VisitRegionsAt on an object inside
// the region must report that region.
func TestGridObjectQueryAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := unitGrid(10)
	regions := map[uint64]geo.Rect{}
	for q := uint64(0); q < 50; q++ {
		r := geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.05+rng.Float64()*0.2)
		regions[q] = r
		g.InsertRegion(q, r)
	}
	for i := 0; i < 1000; i++ {
		p := geo.Pt(rng.Float64(), rng.Float64())
		cands := map[uint64]bool{}
		g.VisitRegionsAt(p, func(id uint64, _ geo.Rect) bool {
			cands[id] = true
			return true
		})
		for q, r := range regions {
			if r.Contains(p) && !cands[q] {
				t.Fatalf("object %v inside region %d=%v not in candidates", p, q, r)
			}
		}
	}
}

// TestRegionWritesBesideObjectReads exercises the concurrency rule the
// engine's join relies on: region writers may run while other
// goroutines visit objects. Under -race, a change that lets a region
// write touch what an object read reads fails here.
func TestRegionWritesBesideObjectReads(t *testing.T) {
	g := unitGrid(16)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		g.InsertObject(uint64(i), geo.Pt(rng.Float64(), rng.Float64()))
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			var nbrs []Neighbor
			for i := 0; i < 200; i++ {
				x, y := r.Float64()*0.8, r.Float64()*0.8
				g.VisitObjectsIn(geo.R(x, y, x+0.2, y+0.2), func(uint64, geo.Point) bool { return true })
				g.CountCells(geo.R(x, y, x+0.2, y+0.2))
				nbrs = g.KNearestAppend(nbrs, geo.Pt(x, y), 8, nil)
			}
		}(int64(w))
	}
	old := geo.R(0.1, 0.1, 0.3, 0.3)
	g.InsertRegion(1<<40, old)
	for i := 0; i < 400; i++ {
		x, y := rng.Float64()*0.7, rng.Float64()*0.7
		nr := geo.R(x, y, x+0.3, y+0.3)
		g.MoveRegion(1<<40, old, nr)
		g.InsertRegion(1<<41+uint64(i), nr)
		g.RemoveRegion(1<<41+uint64(i), nr)
		old = nr
	}
	wg.Wait()
	if g.NumRegionEntries() != g.CountCells(old) {
		t.Errorf("region entries = %d, want %d", g.NumRegionEntries(), g.CountCells(old))
	}
}
