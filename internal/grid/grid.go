// Package grid implements the shared uniform grid structure at the heart
// of the continuous query processor. Following the paper, one grid holds
// both objects and queries: point objects are mapped to exactly one cell by
// location, while queries (and the swept regions of predictive objects)
// are clipped to every cell their region overlaps.
//
// Storage layout. Each cell holds its entries in packed slabs — flat,
// contiguous slices of object and region entries — rather than per-cell
// hash maps. Iteration (the join's inner loop) walks contiguous memory;
// removal swaps the last entry into the vacated slot ("swap-remove"), so
// the slabs never hold holes; and a single open-addressed (key, cell) →
// slot index (idxTable) locates any entry in O(1) for Move/Remove. The
// swap-remove invariant: slabs are always dense, and the index always
// agrees with every entry's current slot. A consequence worth relying on:
// visit order is deterministic — insertion order, perturbed only by
// swap-removes — where the old map-backed cells iterated in Go's
// randomized map order.
//
// The grid stores opaque uint64 identifiers; the engine layers object and
// query semantics on top. All methods are single-threaded; the engine
// serializes access (the paper's server processes buffered updates in
// bulk, one evaluation at a time).
package grid

import (
	"fmt"
	"math"

	"cqp/internal/geo"
)

// Grid divides a rectangular space evenly into N×N equal-sized cells.
type Grid struct {
	bounds geo.Rect
	n      int
	cellW  float64
	cellH  float64
	cells  []cell

	objIdx idxTable // (key, cell) → slot in cells[cell].objs
	regIdx idxTable // (key, cell) → slot in cells[cell].regs

	// stats
	objects int
	regions int
}

// objEntry is one point entry (an object location) in a cell's slab.
type objEntry struct {
	key uint64
	p   geo.Point
}

// regEntry is one clipped region entry (a query, or a predictive
// object's swept trajectory box) in a cell's slab.
type regEntry struct {
	key  uint64
	clip geo.Rect
}

type cell struct {
	objs []objEntry
	regs []regEntry
}

// New creates a grid with n×n cells over bounds. It panics if n < 1 or
// bounds is empty, which indicates a configuration error rather than a
// runtime condition.
func New(bounds geo.Rect, n int) *Grid {
	if n < 1 {
		panic(fmt.Sprintf("grid: invalid cell count %d", n))
	}
	if bounds.Empty() {
		panic(fmt.Sprintf("grid: empty bounds %v", bounds))
	}
	return &Grid{
		bounds: bounds,
		n:      n,
		cellW:  bounds.Width() / float64(n),
		cellH:  bounds.Height() / float64(n),
		cells:  make([]cell, n*n),
	}
}

// Bounds returns the space covered by the grid.
func (g *Grid) Bounds() geo.Rect { return g.bounds }

// N returns the per-axis cell count.
func (g *Grid) N() int { return g.n }

// NumObjects returns the number of point entries stored.
func (g *Grid) NumObjects() int { return g.objects }

// NumRegionEntries returns the number of (region, cell) registrations; a
// region clipped to k cells counts k times.
func (g *Grid) NumRegionEntries() int { return g.regions }

// CellIndex returns the index of the cell containing p. Points outside the
// bounds are clamped to the nearest edge cell, so every point maps to a
// valid cell.
func (g *Grid) CellIndex(p geo.Point) int {
	cx, cy := g.cellCoords(p)
	return cy*g.n + cx
}

func (g *Grid) cellCoords(p geo.Point) (cx, cy int) {
	return g.axisCell((p.X - g.bounds.MinX) / g.cellW), g.axisCell((p.Y - g.bounds.MinY) / g.cellH)
}

// axisCell clamps a coordinate measured in cells to [0, n-1] before it
// converts to int: a float beyond int's range (1e300, +Inf) converts to
// an unspecified value, so clamping afterwards could not tell it from a
// coordinate below the bounds. NaN maps to cell 0.
func (g *Grid) axisCell(f float64) int {
	if f >= float64(g.n-1) {
		return g.n - 1
	}
	if f > 0 {
		return int(f)
	}
	return 0
}

// CellRect returns the spatial extent of cell ci.
func (g *Grid) CellRect(ci int) geo.Rect {
	cx, cy := ci%g.n, ci/g.n
	return geo.Rect{
		MinX: g.bounds.MinX + float64(cx)*g.cellW,
		MinY: g.bounds.MinY + float64(cy)*g.cellH,
		MaxX: g.bounds.MinX + float64(cx+1)*g.cellW,
		MaxY: g.bounds.MinY + float64(cy+1)*g.cellH,
	}
}

// clipRect is the extent of cell (cx, cy) with the grid's outer edges
// pushed out to infinity. A point outside the bounds is clamped into an
// edge cell, so the clip stored there must reach it; and a region wholly
// outside the bounds, clamped onto the edge cells, keeps a clip of its
// own there rather than an empty one.
func (g *Grid) clipRect(cx, cy int) geo.Rect {
	r := g.CellRect(cy*g.n + cx)
	if cx == 0 {
		r.MinX = math.Inf(-1)
	}
	if cx == g.n-1 {
		r.MaxX = math.Inf(1)
	}
	if cy == 0 {
		r.MinY = math.Inf(-1)
	}
	if cy == g.n-1 {
		r.MaxY = math.Inf(1)
	}
	return r
}

// cellRange returns the inclusive cell-coordinate range covering r's
// clamped image. A rect lying partly or wholly outside the bounds
// clamps componentwise onto the boundary cells instead of vanishing —
// the grid is a candidate generator over clamped geometry, and an
// entry must land wherever a clamped counterpart could land, no matter
// how far outside the indexed region the raw geometry sits. (Engines
// built over a sub-Region of the monitored space depend on this:
// a query region far outside a tile's Region still has to meet the
// tile's boundary-clamped objects in the edge cells.) Only an invalid
// rect registers nowhere.
func (g *Grid) cellRange(r geo.Rect) (x1, y1, x2, y2 int, ok bool) {
	if !r.Valid() {
		return 0, 0, 0, 0, false
	}
	x1, y1 = g.cellCoords(geo.Pt(r.MinX, r.MinY))
	x2, y2 = g.cellCoords(geo.Pt(r.MaxX, r.MaxY))
	// A region whose max coordinate lands exactly on a cell boundary should
	// not spill into the next cell; the clamp in cellCoords already handles
	// the far edge of the space.
	if x2 > x1 && r.MaxX == g.bounds.MinX+float64(x2)*g.cellW {
		x2--
	}
	if y2 > y1 && r.MaxY == g.bounds.MinY+float64(y2)*g.cellH {
		y2--
	}
	return x1, y1, x2, y2, true
}

// InsertObject stores a point entry for id at p. A duplicate insert into
// the same cell refreshes the stored location in place.
func (g *Grid) InsertObject(id uint64, p geo.Point) {
	ci := int32(g.CellIndex(p))
	c := &g.cells[ci]
	if slot, ok := g.objIdx.get(id, ci); ok {
		c.objs[slot].p = p
		return
	}
	c.objs = append(c.objs, objEntry{key: id, p: p})
	g.objIdx.put(id, ci, int32(len(c.objs)-1))
	g.objects++
}

// RemoveObject deletes the point entry for id previously stored at p. It
// reports whether the entry existed.
func (g *Grid) RemoveObject(id uint64, p geo.Point) bool {
	ci := int32(g.CellIndex(p))
	slot, ok := g.objIdx.get(id, ci)
	if !ok {
		return false
	}
	g.removeObjAt(ci, slot)
	g.objIdx.del(id, ci)
	g.objects--
	return true
}

// removeObjAt swap-removes the entry at slot from cell ci's object slab,
// re-pointing the index of the entry that filled the hole.
func (g *Grid) removeObjAt(ci, slot int32) {
	c := &g.cells[ci]
	last := int32(len(c.objs) - 1)
	if slot != last {
		moved := c.objs[last]
		c.objs[slot] = moved
		g.objIdx.put(moved.key, ci, slot)
	}
	c.objs = c.objs[:last]
}

// MoveObject relocates id from old to new, returning the old and new cell
// indexes. When both map to the same cell only the stored location is
// refreshed.
func (g *Grid) MoveObject(id uint64, old, new geo.Point) (oldCell, newCell int) {
	oldCell = g.CellIndex(old)
	newCell = g.CellIndex(new)
	if oldCell == newCell {
		ci := int32(oldCell)
		if slot, ok := g.objIdx.get(id, ci); ok {
			g.cells[ci].objs[slot].p = new
		} else {
			g.InsertObject(id, new)
		}
		return oldCell, newCell
	}
	g.RemoveObject(id, old)
	g.InsertObject(id, new)
	return oldCell, newCell
}

// InsertRegion registers a region entry (a query, or the swept bounding
// box of a predictive object's trajectory) in every cell it overlaps,
// storing the clipped region per cell as in the paper's query entry
// (QID, region∩cell), edge cells reaching past the bounds (clipRect).
// Re-inserting an id refreshes its clip in cells it already occupies.
func (g *Grid) InsertRegion(id uint64, r geo.Rect) {
	x1, y1, x2, y2, ok := g.cellRange(r)
	if !ok {
		return
	}
	for cy := y1; cy <= y2; cy++ {
		for cx := x1; cx <= x2; cx++ {
			ci := int32(cy*g.n + cx)
			clip, _ := r.Intersect(g.clipRect(cx, cy))
			c := &g.cells[ci]
			if slot, ok := g.regIdx.get(id, ci); ok {
				c.regs[slot].clip = clip
				continue
			}
			c.regs = append(c.regs, regEntry{key: id, clip: clip})
			g.regIdx.put(id, ci, int32(len(c.regs)-1))
			g.regions++
		}
	}
}

// RemoveRegion deletes the region entry for id from every cell r overlaps.
func (g *Grid) RemoveRegion(id uint64, r geo.Rect) {
	x1, y1, x2, y2, ok := g.cellRange(r)
	if !ok {
		return
	}
	for cy := y1; cy <= y2; cy++ {
		for cx := x1; cx <= x2; cx++ {
			g.removeRegionCell(id, int32(cy*g.n+cx))
		}
	}
}

// removeRegionCell deletes the region entry for id from one cell, if
// present.
func (g *Grid) removeRegionCell(id uint64, ci int32) {
	slot, ok := g.regIdx.get(id, ci)
	if !ok {
		return
	}
	c := &g.cells[ci]
	last := int32(len(c.regs) - 1)
	if slot != last {
		moved := c.regs[last]
		c.regs[slot] = moved
		g.regIdx.put(moved.key, ci, slot)
	}
	c.regs = c.regs[:last]
	g.regIdx.del(id, ci)
	g.regions--
}

// MoveRegion re-registers id from region old to region new. Only the
// cells old covers and new does not are deleted; cells both cover are
// refreshed in place. A query that moved a fraction of its own size
// keeps most of its cells, so the delete/insert churn is confined to
// its leading and trailing edges.
func (g *Grid) MoveRegion(id uint64, old, new geo.Rect) {
	ox1, oy1, ox2, oy2, ook := g.cellRange(old)
	nx1, ny1, nx2, ny2, nok := g.cellRange(new)
	if !ook || !nok {
		if ook {
			g.RemoveRegion(id, old)
		}
		if nok {
			g.InsertRegion(id, new)
		}
		return
	}
	for cy := oy1; cy <= oy2; cy++ {
		for cx := ox1; cx <= ox2; cx++ {
			if cy >= ny1 && cy <= ny2 && cx >= nx1 && cx <= nx2 {
				continue // still covered: InsertRegion refreshes it
			}
			g.removeRegionCell(id, int32(cy*g.n+cx))
		}
	}
	g.InsertRegion(id, new)
}

// CountCells returns the number of cells overlapping r without visiting
// them.
func (g *Grid) CountCells(r geo.Rect) int {
	x1, y1, x2, y2, ok := g.cellRange(r)
	if !ok {
		return 0
	}
	return (x2 - x1 + 1) * (y2 - y1 + 1)
}

// VisitCells calls fn with the index of every cell overlapping r, stopping
// early if fn returns false.
func (g *Grid) VisitCells(r geo.Rect, fn func(ci int) bool) {
	x1, y1, x2, y2, ok := g.cellRange(r)
	if !ok {
		return
	}
	for cy := y1; cy <= y2; cy++ {
		for cx := x1; cx <= x2; cx++ {
			if !fn(cy*g.n + cx) {
				return
			}
		}
	}
}

// VisitObjectsIn calls fn for every point entry lying inside r (an exact
// containment filter over the overlapping cells), stopping early if fn
// returns false. Entries must not be inserted or removed during the
// visit.
func (g *Grid) VisitObjectsIn(r geo.Rect, fn func(id uint64, p geo.Point) bool) {
	x1, y1, x2, y2, ok := g.cellRange(r)
	if !ok {
		return
	}
	for cy := y1; cy <= y2; cy++ {
		for cx := x1; cx <= x2; cx++ {
			objs := g.cells[cy*g.n+cx].objs
			for i := range objs {
				if r.Contains(objs[i].p) {
					if !fn(objs[i].key, objs[i].p) {
						return
					}
				}
			}
		}
	}
}

// VisitObjectsInCell calls fn for every point entry stored in cell ci.
func (g *Grid) VisitObjectsInCell(ci int, fn func(id uint64, p geo.Point) bool) {
	objs := g.cells[ci].objs
	for i := range objs {
		if !fn(objs[i].key, objs[i].p) {
			return
		}
	}
}

// VisitRegionsInCell calls fn for every region entry registered in cell
// ci, passing the clipped region.
func (g *Grid) VisitRegionsInCell(ci int, fn func(id uint64, clipped geo.Rect) bool) {
	regs := g.cells[ci].regs
	for i := range regs {
		if !fn(regs[i].key, regs[i].clip) {
			return
		}
	}
}

// VisitRegionsAt calls fn for every region entry registered in the cell
// containing p. These are the paper's "candidate queries" for an object at
// p; the caller filters by the query's exact region.
func (g *Grid) VisitRegionsAt(p geo.Point, fn func(id uint64, clipped geo.Rect) bool) {
	g.VisitRegionsInCell(g.CellIndex(p), fn)
}

// CountObjectsIn returns the number of point entries inside r.
func (g *Grid) CountObjectsIn(r geo.Rect) int {
	n := 0
	g.VisitObjectsIn(r, func(uint64, geo.Point) bool { n++; return true })
	return n
}

// Neighbor is one result of a k-nearest-neighbor search.
type Neighbor struct {
	ID   uint64
	P    geo.Point
	Dist float64
}

// KNearest returns the k point entries nearest to focal in ascending
// distance order. See KNearestAppend.
func (g *Grid) KNearest(focal geo.Point, k int, filter func(id uint64) bool) []Neighbor {
	return g.KNearestAppend(nil, focal, k, filter)
}

// KNearestAppend is KNearest writing its result into dst (overwritten
// from length zero, grown as needed), so steady-state callers can reuse
// one buffer across searches. It finds the k point entries nearest to
// focal in ascending distance order, using an expanding ring of cells
// with the standard best-first pruning bound: the search stops once the
// k-th candidate is closer than any unvisited ring. Fewer than k results
// are returned when the grid holds fewer objects. The filter, when
// non-nil, excludes entries for which it returns false.
func (g *Grid) KNearestAppend(dst []Neighbor, focal geo.Point, k int, filter func(id uint64) bool) []Neighbor {
	if k <= 0 {
		return dst[:0]
	}
	// dst doubles as the max-heap of the current best k: the root (index
	// 0) is the farthest candidate retained.
	heap := dst[:0]
	fcx, fcy := g.cellCoords(focal)

	for ring := 0; ring < g.n; ring++ {
		// Prune: every cell at this ring is at least ringDist away.
		if len(heap) == k {
			ringDist := float64(ring-1) * math.Min(g.cellW, g.cellH)
			if ring > 0 && ringDist > heap[0].Dist {
				break
			}
		}
		visited := false
		forRing(fcx, fcy, ring, g.n, func(cx, cy int) {
			visited = true
			objs := g.cells[cy*g.n+cx].objs
			for i := range objs {
				e := &objs[i]
				if filter != nil && !filter(e.key) {
					continue
				}
				d := focal.Dist(e.p)
				if len(heap) < k {
					heap = nnPush(heap, Neighbor{e.key, e.p, d})
				} else if d < heap[0].Dist {
					heap, _ = nnPop(heap)
					heap = nnPush(heap, Neighbor{e.key, e.p, d})
				}
			}
		})
		if !visited && ring > maxRing(fcx, fcy, g.n) {
			break
		}
	}

	// Unwind the heap in place: repeatedly pop the farthest into the slot
	// it vacates, yielding ascending distance order.
	for n := len(heap); n > 1; n-- {
		rest, top := nnPop(heap[:n])
		heap[len(rest)] = top
	}
	return heap
}

// maxRing returns the largest ring radius around (cx,cy) that still
// contains at least one valid cell.
func maxRing(cx, cy, n int) int {
	m := cx
	if v := cy; v > m {
		m = v
	}
	if v := n - 1 - cx; v > m {
		m = v
	}
	if v := n - 1 - cy; v > m {
		m = v
	}
	return m
}

// forRing visits the cells on the square ring of the given radius centered
// at (cx, cy), skipping out-of-range coordinates.
func forRing(cx, cy, ring, n int, fn func(x, y int)) {
	if ring == 0 {
		if cx >= 0 && cx < n && cy >= 0 && cy < n {
			fn(cx, cy)
		}
		return
	}
	x1, x2 := cx-ring, cx+ring
	y1, y2 := cy-ring, cy+ring
	for x := x1; x <= x2; x++ {
		if x < 0 || x >= n {
			continue
		}
		if y1 >= 0 && y1 < n {
			fn(x, y1)
		}
		if y2 >= 0 && y2 < n {
			fn(x, y2)
		}
	}
	for y := y1 + 1; y <= y2-1; y++ {
		if y < 0 || y >= n {
			continue
		}
		if x1 >= 0 && x1 < n {
			fn(x1, y)
		}
		if x2 >= 0 && x2 < n {
			fn(x2, y)
		}
	}
}

// nnPush appends n to the max-heap (keyed on distance) stored in hs.
func nnPush(hs []Neighbor, n Neighbor) []Neighbor {
	hs = append(hs, n)
	i := len(hs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hs[parent].Dist >= hs[i].Dist {
			break
		}
		hs[parent], hs[i] = hs[i], hs[parent]
		i = parent
	}
	return hs
}

// nnPop removes and returns the farthest neighbor (the root) from the
// max-heap stored in hs.
func nnPop(hs []Neighbor) ([]Neighbor, Neighbor) {
	top := hs[0]
	last := len(hs) - 1
	hs[0] = hs[last]
	hs = hs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(hs) && hs[l].Dist > hs[largest].Dist {
			largest = l
		}
		if r < len(hs) && hs[r].Dist > hs[largest].Dist {
			largest = r
		}
		if largest == i {
			break
		}
		hs[i], hs[largest] = hs[largest], hs[i]
		i = largest
	}
	return hs, top
}
