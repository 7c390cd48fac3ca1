package grid

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cqp/internal/geo"
)

// quickPoints generates points within (and slightly beyond) the unit
// square so clamping paths are exercised.
func quickValues(vals []reflect.Value, rng *rand.Rand) {
	for i := range vals {
		vals[i] = reflect.ValueOf(rng.Float64()*1.2 - 0.1)
	}
}

var gridQuickCfg = &quick.Config{MaxCount: 500, Values: quickValues}

// TestQuickCellIndexRoundTrip: every point maps to a cell whose rectangle
// contains it (when the point is inside the bounds).
func TestQuickCellIndexRoundTrip(t *testing.T) {
	g := New(geo.R(0, 0, 1, 1), 13)
	f := func(x, y float64) bool {
		p := geo.Pt(x, y)
		ci := g.CellIndex(p)
		if ci < 0 || ci >= 13*13 {
			return false
		}
		if g.Bounds().Contains(p) {
			// Expand for boundary points shared between cells.
			return g.CellRect(ci).Expand(1e-12).Contains(p)
		}
		return true // clamped points land in an edge cell by design
	}
	if err := quick.Check(f, gridQuickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRegionCandidatesComplete: a point inside a registered region is
// always among the candidates of its cell, also when the region's max
// edges, and the point, lie on cell boundaries.
func TestQuickRegionCandidatesComplete(t *testing.T) {
	g := New(geo.R(0, 0, 1, 1), 9)
	// lower is the cell boundary at or below v, as CellRect computes it.
	lower := func(v float64) float64 { return g.CellRect(g.CellIndex(geo.Pt(v, 0))).MinX }
	f := func(cx, cy, side, px, py float64) bool {
		r := geo.RectAt(geo.Pt(cx, cy), 0.01+side*0.3)
		p := geo.Pt(px, py)
		if side < 0.5 { // max edges on boundaries, p inside, often on them
			r.MaxX, r.MaxY = max(r.MinX, lower(r.MaxX)), max(r.MinY, lower(r.MaxY))
			p = geo.Pt(r.MinX+px*r.Width(), r.MinY+py*r.Height())
			if px < 0.5 {
				p.X = r.MaxX
			}
			if py < 0.5 {
				p.Y = r.MaxY
			}
		}
		g.InsertRegion(1, r)
		defer g.RemoveRegion(1, r)
		if !r.Contains(p) || !g.Bounds().Contains(p) {
			return true
		}
		found := false
		g.VisitRegionsAt(p, func(id uint64, _ geo.Rect) bool {
			found = found || id == 1
			return true
		})
		return found
	}
	if err := quick.Check(f, gridQuickCfg); err != nil {
		t.Error(err)
	}
}

// TestQuickMoveRegionEquivalence: MoveRegion leaves the grid in the same
// state as RemoveRegion + InsertRegion, including the same-cell fast path.
func TestQuickMoveRegionEquivalence(t *testing.T) {
	f := func(ax, ay, aside, bx, by, bside float64) bool {
		ra := geo.RectAt(geo.Pt(ax, ay), 0.01+aside*0.2)
		rb := geo.RectAt(geo.Pt(bx, by), 0.01+bside*0.2)

		g1 := New(geo.R(0, 0, 1, 1), 7)
		g1.InsertRegion(5, ra)
		g1.MoveRegion(5, ra, rb)

		g2 := New(geo.R(0, 0, 1, 1), 7)
		g2.InsertRegion(5, rb)

		if g1.NumRegionEntries() != g2.NumRegionEntries() {
			return false
		}
		equal := true
		g1.VisitCells(geo.R(0, 0, 1, 1), func(ci int) bool {
			var c1, c2 []geo.Rect
			g1.VisitRegionsInCell(ci, func(_ uint64, clip geo.Rect) bool {
				c1 = append(c1, clip)
				return true
			})
			g2.VisitRegionsInCell(ci, func(_ uint64, clip geo.Rect) bool {
				c2 = append(c2, clip)
				return true
			})
			if !reflect.DeepEqual(c1, c2) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	if err := quick.Check(f, gridQuickCfg); err != nil {
		t.Error(err)
	}
}
