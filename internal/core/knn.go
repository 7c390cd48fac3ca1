package core

import (
	"cqp/internal/geo"
	"cqp/internal/grid"
)

// recomputeKNN takes the exact k-nearest-neighbor search of a dirty kNN
// query, emits the diff against the stored answer, and re-registers the
// query's circular region in the grid. Phase 4 of a Step (knnPhase,
// join.go) runs the searches and then calls it once per dirty query.
//
// Following the paper, a kNN query lives in the grid "as the smallest
// circular region that contains the k nearest objects": a focal-centered
// circle whose radius is the distance to the k-th neighbor. Membership
// changes are detected cheaply (a member moved, or a non-member intruded
// into the circle) and trigger this exact re-search; the emitted updates
// are only the diff, e.g. (Q, −p2) (Q, +p1) when p1 displaces p2.
//
// The neighbor lists and the drop/add diff live in engine scratch reused
// across recomputes, so steady-state kNN upkeep does not allocate. The
// diff is emitted in search/answer order, not sorted: the step's
// canonical sort fixes the stream, and no pair appears twice.
func (e *Engine) recomputeKNN(qs *queryState, neighbors []grid.Neighbor, out *[]Update) {
	e.stats.KNNRecomputes++
	radius := 0.0
	for _, n := range neighbors {
		if n.Dist > radius {
			radius = n.Dist
		}
	}

	// Diff against the stored answer (collected first: setMember mutates
	// qs.answer mid-iteration otherwise).
	drop, add := e.knnDrop[:0], e.knnAdd[:0]
	members := qs.answer.AppendTo(e.hBuf[:0])
	e.hBuf = members
	for _, h := range members {
		if !neighborsContain(neighbors, h) {
			drop = append(drop, h)
		}
	}
	for _, n := range neighbors {
		if h := int32(n.ID >> 1); !qs.answer.Has(h) {
			add = append(add, h)
		}
	}
	for _, h := range drop {
		e.setMember(qs, e.objsByH[h], false, out)
	}
	for _, h := range add {
		// Pre-filtered against the answer above — provably absent.
		e.setMemberNew(qs, e.objsByH[h], out)
	}
	e.knnDrop, e.knnAdd = drop, add

	e.reRegisterKNN(qs, len(neighbors), radius)
}

// neighborsContain reports whether handle h is among the neighbor keys
// (linear scan: k is small).
func neighborsContain(ns []grid.Neighbor, h int32) bool {
	for _, n := range ns {
		if int32(n.ID>>1) == h {
			return true
		}
	}
	return false
}

// reRegisterKNN re-registers a kNN query's circular region after a
// re-search found `found` neighbors with the given radius. While the
// query is starved (fewer than k objects exist) any insertion anywhere
// can extend the answer, so the query watches the whole space.
func (e *Engine) reRegisterKNN(qs *queryState, found int, radius float64) {
	var region geo.Rect
	if found < qs.k {
		region = e.g.Bounds()
	} else {
		region = geo.Circle{C: qs.focal, R: radius}.BBox()
	}
	if qs.registered {
		e.g.MoveRegion(qkeyH(qs.h, KNN), qs.region, region)
	} else {
		e.g.InsertRegion(qkeyH(qs.h, KNN), region)
		qs.registered = true
	}
	qs.region = region
	qs.radius = radius
}

// KNNRadius returns the current circle radius of a kNN query (the
// distance to its k-th neighbor), or false if q is not a registered kNN
// query. Exposed for tests and monitoring.
func (e *Engine) KNNRadius(q QueryID) (float64, bool) {
	qs, ok := e.qrys[q]
	if !ok || qs.kind != KNN {
		return 0, false
	}
	return qs.radius, true
}
