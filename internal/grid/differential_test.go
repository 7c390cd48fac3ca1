package grid

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cqp/internal/geo"
)

// modelGrid is the reference implementation for the differential test: a
// verbatim transcription of the pre-slab, map-backed grid storage. The
// flat slab grid must be observationally equivalent to it under every
// Insert/Move/Remove/Visit sequence (up to iteration order, which the
// maps randomize and the slabs fix).
type modelGrid struct {
	bounds geo.Rect
	n      int
	cellW  float64
	cellH  float64
	cells  []modelCell

	objects int
	regions int
}

type modelCell struct {
	objects map[uint64]geo.Point
	regions map[uint64]geo.Rect
}

func newModel(bounds geo.Rect, n int) *modelGrid {
	return &modelGrid{
		bounds: bounds,
		n:      n,
		cellW:  bounds.Width() / float64(n),
		cellH:  bounds.Height() / float64(n),
		cells:  make([]modelCell, n*n),
	}
}

func (g *modelGrid) cellCoords(p geo.Point) (cx, cy int) {
	return g.axisCell((p.X - g.bounds.MinX) / g.cellW), g.axisCell((p.Y - g.bounds.MinY) / g.cellH)
}

// axisCell clamps a coordinate in cell units to a cell in [0, n-1],
// NaN to 0, before the int conversion can overflow.
func (g *modelGrid) axisCell(f float64) int {
	if !(f > 0) {
		return 0
	}
	return int(min(f, float64(g.n-1)))
}

func (g *modelGrid) cellIndex(p geo.Point) int {
	cx, cy := g.cellCoords(p)
	return cy*g.n + cx
}

func (g *modelGrid) cellRect(ci int) geo.Rect {
	cx, cy := ci%g.n, ci/g.n
	return geo.Rect{
		MinX: g.bounds.MinX + float64(cx)*g.cellW,
		MinY: g.bounds.MinY + float64(cy)*g.cellH,
		MaxX: g.bounds.MinX + float64(cx+1)*g.cellW,
		MaxY: g.bounds.MinY + float64(cy+1)*g.cellH,
	}
}

// clipRect is cellRect with the edges on the boundary of the space
// pushed out to infinity: out-of-bounds geometry clamps into the edge
// cells, and the clips stored there reach it.
func (g *modelGrid) clipRect(ci int) geo.Rect {
	r, inf := g.cellRect(ci), math.Inf(1)
	cx, cy, last := ci%g.n, ci/g.n, g.n-1
	if cx == 0 {
		r.MinX = -inf
	}
	if cx == last {
		r.MaxX = inf
	}
	if cy == 0 {
		r.MinY = -inf
	}
	if cy == last {
		r.MaxY = inf
	}
	return r
}

func (g *modelGrid) cellRange(r geo.Rect) (x1, y1, x2, y2 int, ok bool) {
	if !r.Valid() {
		return 0, 0, 0, 0, false
	}
	x1, y1 = g.cellCoords(geo.Pt(r.MinX, r.MinY))
	x2, y2 = g.cellCoords(geo.Pt(r.MaxX, r.MaxY))
	if x2 > x1 && r.MaxX == g.bounds.MinX+float64(x2)*g.cellW {
		x2--
	}
	if y2 > y1 && r.MaxY == g.bounds.MinY+float64(y2)*g.cellH {
		y2--
	}
	return x1, y1, x2, y2, true
}

func (g *modelGrid) insertObject(id uint64, p geo.Point) {
	c := &g.cells[g.cellIndex(p)]
	if c.objects == nil {
		c.objects = make(map[uint64]geo.Point)
	}
	if _, dup := c.objects[id]; !dup {
		g.objects++
	}
	c.objects[id] = p
}

func (g *modelGrid) removeObject(id uint64, p geo.Point) bool {
	c := &g.cells[g.cellIndex(p)]
	if _, ok := c.objects[id]; !ok {
		return false
	}
	delete(c.objects, id)
	g.objects--
	return true
}

func (g *modelGrid) moveObject(id uint64, old, new geo.Point) {
	oldCell, newCell := g.cellIndex(old), g.cellIndex(new)
	if oldCell == newCell {
		c := &g.cells[oldCell]
		if _, ok := c.objects[id]; ok {
			c.objects[id] = new
		} else {
			g.insertObject(id, new)
		}
		return
	}
	g.removeObject(id, old)
	g.insertObject(id, new)
}

func (g *modelGrid) insertRegion(id uint64, r geo.Rect) {
	x1, y1, x2, y2, ok := g.cellRange(r)
	if !ok {
		return
	}
	for cy := y1; cy <= y2; cy++ {
		for cx := x1; cx <= x2; cx++ {
			ci := cy*g.n + cx
			c := &g.cells[ci]
			if c.regions == nil {
				c.regions = make(map[uint64]geo.Rect)
			}
			clip, _ := r.Intersect(g.clipRect(ci))
			if _, dup := c.regions[id]; !dup {
				g.regions++
			}
			c.regions[id] = clip
		}
	}
}

func (g *modelGrid) removeRegion(id uint64, r geo.Rect) {
	x1, y1, x2, y2, ok := g.cellRange(r)
	if !ok {
		return
	}
	for cy := y1; cy <= y2; cy++ {
		for cx := x1; cx <= x2; cx++ {
			c := &g.cells[cy*g.n+cx]
			if _, exists := c.regions[id]; exists {
				delete(c.regions, id)
				g.regions--
			}
		}
	}
}

func (g *modelGrid) moveRegion(id uint64, old, new geo.Rect) {
	ox1, oy1, ox2, oy2, ook := g.cellRange(old)
	nx1, ny1, nx2, ny2, nok := g.cellRange(new)
	if ook && nok && ox1 == nx1 && oy1 == ny1 && ox2 == nx2 && oy2 == ny2 {
		g.insertRegion(id, new)
		return
	}
	g.removeRegion(id, old)
	g.insertRegion(id, new)
}

// diffCheck compares every observable of the flat grid against the model:
// totals, per-cell object and region contents, and the exact-filter
// visit over a probe rectangle.
func diffCheck(t *testing.T, g *Grid, m *modelGrid, probe geo.Rect) {
	t.Helper()
	if g.NumObjects() != m.objects {
		t.Fatalf("NumObjects: flat %d, model %d", g.NumObjects(), m.objects)
	}
	if g.NumRegionEntries() != m.regions {
		t.Fatalf("NumRegionEntries: flat %d, model %d", g.NumRegionEntries(), m.regions)
	}
	for ci := 0; ci < g.n*g.n; ci++ {
		var gotO []objEntry
		g.VisitObjectsInCell(ci, func(id uint64, p geo.Point) bool {
			gotO = append(gotO, objEntry{id, p})
			return true
		})
		var wantO []objEntry
		for id, p := range m.cells[ci].objects {
			wantO = append(wantO, objEntry{id, p})
		}
		sortObjEntries(gotO)
		sortObjEntries(wantO)
		if fmt.Sprint(gotO) != fmt.Sprint(wantO) {
			t.Fatalf("cell %d objects: flat %v, model %v", ci, gotO, wantO)
		}

		var gotR []regEntry
		g.VisitRegionsInCell(ci, func(id uint64, clip geo.Rect) bool {
			gotR = append(gotR, regEntry{id, clip})
			return true
		})
		var wantR []regEntry
		for id, r := range m.cells[ci].regions {
			wantR = append(wantR, regEntry{id, r})
		}
		sortRegEntries(gotR)
		sortRegEntries(wantR)
		if fmt.Sprint(gotR) != fmt.Sprint(wantR) {
			t.Fatalf("cell %d regions: flat %v, model %v", ci, gotR, wantR)
		}
	}

	// VisitObjectsIn must report exactly the model entries inside probe.
	var got []uint64
	g.VisitObjectsIn(probe, func(id uint64, _ geo.Point) bool {
		got = append(got, id)
		return true
	})
	var want []uint64
	if x1, y1, x2, y2, ok := m.cellRange(probe); ok {
		for cy := y1; cy <= y2; cy++ {
			for cx := x1; cx <= x2; cx++ {
				for id, p := range m.cells[cy*m.n+cx].objects {
					if probe.Contains(p) {
						want = append(want, id)
					}
				}
			}
		}
	}
	sortU64(got)
	sortU64(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("VisitObjectsIn(%v): flat %v, model %v", probe, got, want)
	}
}

func sortObjEntries(es []objEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].key != es[j].key {
			return es[i].key < es[j].key
		}
		return es[i].p.X < es[j].p.X || (es[i].p.X == es[j].p.X && es[i].p.Y < es[j].p.Y)
	})
}

func sortRegEntries(es []regEntry) {
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
}

func sortU64(vs []uint64) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

// diffPoint draws a point that lands on exact cell boundaries about a
// third of the time (including the far edge of the space) and strictly
// outside the bounds occasionally, so the clamping and boundary-clipping
// paths stay covered.
func diffPoint(rng *rand.Rand, n int) geo.Point {
	coord := func() float64 {
		switch rng.Intn(6) {
		case 0: // exact interior cell boundary
			return float64(rng.Intn(n+1)) / float64(n)
		case 1: // outside the space
			return rng.Float64()*3 - 1
		default:
			return rng.Float64()
		}
	}
	return geo.Pt(coord(), coord())
}

// diffRect draws a rectangle whose edges are cell-aligned about a third
// of the time, degenerate (zero width or height) occasionally, and
// sometimes fully or partially outside the bounds.
func diffRect(rng *rand.Rand, n int) geo.Rect {
	a, b := diffPoint(rng, n), diffPoint(rng, n)
	r := geo.Rect{
		MinX: min(a.X, b.X), MinY: min(a.Y, b.Y),
		MaxX: max(a.X, b.X), MaxY: max(a.Y, b.Y),
	}
	if rng.Intn(8) == 0 { // degenerate: a segment or a point
		r.MaxX = r.MinX
	}
	return r
}

// TestDifferentialFlatVsMapGrid drives the flat slab grid and the
// map-backed reference model through identical randomized operation
// sequences — duplicate ids, stale locations on Move/Remove,
// boundary-aligned and out-of-bounds regions included — and requires
// observational equivalence after every operation.
func TestDifferentialFlatVsMapGrid(t *testing.T) {
	const (
		trials = 40
		ops    = 400
		ids    = 24 // small pool: forces duplicate and collision traffic
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := []int{1, 2, 3, 4, 7, 16}[rng.Intn(6)]
		g := New(geo.R(0, 0, 1, 1), n)
		m := newModel(geo.R(0, 0, 1, 1), n)

		// Remember a plausible location/region per id so Remove and Move
		// usually refer to live entries; sometimes use a stale one.
		lastLoc := make(map[uint64]geo.Point)
		lastReg := make(map[uint64]geo.Rect)

		for op := 0; op < ops; op++ {
			id := uint64(rng.Intn(ids))
			switch rng.Intn(6) {
			case 0:
				p := diffPoint(rng, n)
				g.InsertObject(id, p)
				m.insertObject(id, p)
				lastLoc[id] = p
			case 1:
				p, ok := lastLoc[id]
				if !ok || rng.Intn(4) == 0 {
					p = diffPoint(rng, n) // stale or unknown location
				}
				if got, want := g.RemoveObject(id, p), m.removeObject(id, p); got != want {
					t.Fatalf("trial %d op %d: RemoveObject(%d, %v) = %v, model %v",
						trial, op, id, p, got, want)
				}
			case 2:
				old, ok := lastLoc[id]
				if !ok || rng.Intn(4) == 0 {
					old = diffPoint(rng, n)
				}
				p := diffPoint(rng, n)
				g.MoveObject(id, old, p)
				m.moveObject(id, old, p)
				lastLoc[id] = p
			case 3:
				r := diffRect(rng, n)
				g.InsertRegion(id, r)
				m.insertRegion(id, r)
				lastReg[id] = r
			case 4:
				r, ok := lastReg[id]
				if !ok || rng.Intn(4) == 0 {
					r = diffRect(rng, n)
				}
				g.RemoveRegion(id, r)
				m.removeRegion(id, r)
			case 5:
				old, ok := lastReg[id]
				if !ok || rng.Intn(4) == 0 {
					old = diffRect(rng, n)
				}
				r := diffRect(rng, n)
				g.MoveRegion(id, old, r)
				m.moveRegion(id, old, r)
				lastReg[id] = r
			}
			// Full-state comparison every few operations (and always at
			// the end) keeps the test fast while still catching drift
			// within a handful of ops of its cause.
			if op%5 == 0 || op == ops-1 {
				diffCheck(t, g, m, diffRect(rng, n))
			}
		}
	}
}

// TestIdxTableRandomized hammers the open-addressed (key, cell) → slot
// index directly against a plain map, covering growth, overwrite, and
// the backward-shift deletion path at high load.
func TestIdxTableRandomized(t *testing.T) {
	type ck struct {
		key  uint64
		cell int32
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		var tab idxTable
		ref := make(map[ck]int32)
		keys := 1 + rng.Intn(200)
		cells := 1 + int32(rng.Intn(8))
		for op := 0; op < 4000; op++ {
			k := ck{uint64(rng.Intn(keys)), int32(rng.Intn(int(cells)))}
			switch rng.Intn(3) {
			case 0, 1:
				v := int32(rng.Intn(1 << 20))
				tab.put(k.key, k.cell, v)
				ref[k] = v
			case 2:
				got := tab.del(k.key, k.cell)
				_, want := ref[k]
				if got != want {
					t.Fatalf("trial %d op %d: del(%v) = %v, want %v", trial, op, k, got, want)
				}
				delete(ref, k)
			}
			if tab.n != len(ref) {
				t.Fatalf("trial %d op %d: size %d, want %d", trial, op, tab.n, len(ref))
			}
		}
		for k, want := range ref {
			got, ok := tab.get(k.key, k.cell)
			if !ok || got != want {
				t.Fatalf("trial %d: get(%v) = %v,%v, want %v", trial, k, got, ok, want)
			}
		}
	}
}
