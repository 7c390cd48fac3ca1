package core

import "cqp/internal/geo"

// This file is the query-update join: phases 2–4 of a Step.
//
//   - Phase 2 (queryPhase) applies the step's query reports one at a
//     time in report-buffer order, so duplicate reports, removals, and
//     kind changes follow arrival order. The incremental
//     evaluation itself is applyRangeUpdate (rangeq.go) and
//     applyPredictiveUpdate (predictive.go).
//   - Phase 3 (objectJoinPhase) joins each distinct moved object once,
//     at its state at the step boundary, against the registered queries
//     in two passes: a read-only gather over the grid and answer sets as
//     phase 2 left them, recording membership proposals and kNN dirty
//     marks in engine-owned scratch, then a serial apply of those
//     findings.
//   - Phase 4 (knnPhase) re-searches every dirty kNN query exactly, in
//     ascending QueryID order (recomputeKNN, knn.go).
//
// Gathering every moved object before applying any finding keeps each
// object's probe a pure read of one frozen state, so what the gather
// finds does not depend on the order the moved objects are visited in.
// All proposals for one (query, object) pair carry the same sign (a drop
// test and an add probe evaluate the same predicate, so they cannot both
// fire), and setMember suppresses same-sign duplicates against the live
// answer, so the emitted multiset is apply-order-invariant; the step's
// canonical sort (sort.go) then fixes the stream.

// memberProposal is one membership decision produced by the phase-3
// gather and applied serially afterwards, by handle.
type memberProposal struct {
	qh, oh int32
	in     bool
}

// joinScratch is the phase-3 gather's engine-owned scratch: its
// findings, the membership stamp filter, and pre-bound grid-visit
// callbacks. Backing buffers and callbacks are retained across Steps,
// which keeps the join allocation-free at steady state.
type joinScratch struct {
	props []memberProposal
	dirty []int32 // query handles to mark kNN-dirty

	// qStamp is an epoch-stamped membership filter for the phase-3
	// candidate probe: qStamp[qh] == stampCur exactly when the moved
	// object currently being gathered is a member of query qh's answer.
	// It is rebuilt per object from the object's own QList — walked
	// anyway for the drop side — so the probe rejects the dominant
	// already-a-member case with one flat array load, touching neither
	// the (cold) query state nor its answer set. Sized to the query
	// handle table by objectJoinPhase; resizing resets the epoch.
	qStamp   []uint32
	stampCur uint32

	curOS *objectState // the moved object being gathered, read by the callbacks

	objRegionsCB func(uint64, geo.Rect) bool // candidate probe at curOS.loc
	sweptCellCB  func(int) bool              // predictive swept-box walk
	sweptRegCB   func(uint64, geo.Rect) bool
}

// bindJoinScratch pre-binds the phase-3 grid-visit callbacks (a fresh
// closure per moved object escapes to the heap; these visit millions of
// candidates per second).
func (e *Engine) bindJoinScratch() {
	j := &e.join
	j.objRegionsCB = func(k uint64, r geo.Rect) bool {
		if !keyIsQuery(k) {
			return true
		}
		os := j.curOS
		e.stats.CandidateChecks++
		// The kind comes from the key and the region from the slab the
		// grid is already walking, so the common non-matching candidate
		// is rejected without touching the (cold) query state at all.
		switch keyKind(k) {
		case Range:
			// The stamp filter keeps the common case — a moved object
			// still inside a region it was in — out of the apply.
			if r.Contains(os.loc) && j.qStamp[k>>3] != j.stampCur {
				j.props = append(j.props, memberProposal{int32(k >> 3), os.h, true})
			}
		case KNN:
			// r is the circle's bounding box (the whole space while the
			// query is starved), so outside it the object can neither
			// enter the circle nor extend a short answer. A member kNN
			// query was already marked dirty by the drop loop, so the
			// stamp skips it here. Inside, the exact test: within the
			// current radius, or still starved — the exact answer may
			// change. (Answers and radii are stable throughout the
			// gather: they only change in the apply and kNN-recompute
			// phases.)
			if r.Contains(os.loc) && j.qStamp[k>>3] != j.stampCur {
				qs := e.qrysByH[k>>3]
				if qs.answer.Len() < qs.k || qs.focal.Dist(os.loc) <= qs.radius {
					j.dirty = append(j.dirty, qs.h)
				}
			}
		case PredictiveRange:
			if os.kind == Predictive && j.qStamp[k>>3] != j.stampCur {
				if qs := e.qrysByH[k>>3]; e.predictiveMatch(qs, os) {
					j.props = append(j.props, memberProposal{qs.h, os.h, true})
				}
			}
		}
		return true
	}
	j.sweptRegCB = func(k uint64, _ geo.Rect) bool {
		if !keyIsQuery(k) || keyKind(k) != PredictiveRange || j.qStamp[k>>3] == j.stampCur {
			return true
		}
		qs := e.qrysByH[k>>3]
		e.stats.CandidateChecks++
		if e.predictiveMatch(qs, j.curOS) {
			j.props = append(j.props, memberProposal{qs.h, j.curOS.h, true})
		}
		return true
	}
	j.sweptCellCB = func(ci int) bool {
		e.g.VisitRegionsInCell(ci, j.sweptRegCB)
		return true
	}
}

// ---------------------------------------------------------------------------
// Phase 2: query re-registrations.

// queryPhase applies the step's buffered query reports in report-buffer
// order.
func (e *Engine) queryPhase(out *[]Update) {
	for _, u := range e.qryBuf {
		e.stats.QueryReports++
		if u.Remove {
			e.removeQuery(u.ID)
			continue
		}
		e.applyQueryUpdate(u, out)
	}
}

// ---------------------------------------------------------------------------
// Phase 3: moved-object join.

// objectJoinPhase joins every changed object against the registered
// queries: membership re-checks plus grid candidate probes, all gathered
// before any is applied.
func (e *Engine) objectJoinPhase(live []*objectState, out *[]Update) {
	if len(live) == 0 {
		return
	}
	j := &e.join
	j.props = j.props[:0]
	j.dirty = j.dirty[:0]
	if len(j.qStamp) < len(e.qrysByH) {
		// Query population grew: new zeroed array, fresh epoch. Steady
		// state never resizes, so the hot path stays allocation-free.
		j.qStamp = make([]uint32, len(e.qrysByH))
		j.stampCur = 0
	}
	for _, os := range live {
		e.gatherMovedObject(os)
	}
	e.applyObjectJoins(out)
}

// applyObjectJoins integrates the phase-3 findings: dirty marks and
// membership proposals (deduplicated by setMember).
func (e *Engine) applyObjectJoins(out *[]Update) {
	j := &e.join
	e.stats.JoinFindings += uint64(len(j.props) + len(j.dirty))
	for _, qh := range j.dirty {
		e.dirtyKNN[e.qrysByH[qh].id] = struct{}{}
	}
	for _, p := range j.props {
		e.setMember(e.qrysByH[p.qh], e.objsByH[p.oh], p.in, out)
	}
}

// gatherMovedObject is the object side of the spatial join, a pure
// read: it re-checks the object's existing memberships against current
// query state and probes the grid for newly satisfied candidate
// queries, appending its findings to the join scratch.
func (e *Engine) gatherMovedObject(os *objectState) {
	j := &e.join
	// New epoch: stamps from previous objects become invalid without
	// clearing. On the (rare) wrap to 0, every slot must be wiped —
	// a slot stamped 0 in a previous cycle would alias the new epoch.
	j.stampCur++
	if j.stampCur == 0 {
		clear(j.qStamp)
		j.stampCur = 1
	}
	// Existing memberships: stamp, and detach from queries the object
	// no longer satisfies.
	for _, qs := range os.queries {
		j.qStamp[qs.h] = j.stampCur
		e.stats.CandidateChecks++
		switch qs.kind {
		case Range:
			if !qs.region.Contains(os.loc) {
				j.props = append(j.props, memberProposal{qs.h, os.h, false})
			}
		case KNN:
			// Any movement of a member can reorder the k nearest.
			j.dirty = append(j.dirty, qs.h)
		case PredictiveRange:
			if !e.predictiveMatch(qs, os) {
				j.props = append(j.props, memberProposal{qs.h, os.h, false})
			}
		}
	}

	// Candidate queries registered in the cell of the new location.
	j.curOS = os
	e.g.VisitRegionsAt(os.loc, j.objRegionsCB)

	// A predictive object additionally joins against predictive queries
	// wherever its trajectory box reaches, not only at its current point.
	if os.kind == Predictive && os.sweptValid {
		e.g.VisitCells(os.swept, j.sweptCellCB)
	}
}

// ---------------------------------------------------------------------------
// Phase 4: dirty-kNN re-evaluation.

// knnPhase drains the dirty-kNN set, re-searching each query exactly
// and emitting its membership diff. The drain order is the map's, and
// needs no sort: a re-search reads only the object slabs, which no
// re-search writes (it moves its query's region entries), so each
// query's diff is the same in any order; the canonical sort orders the
// stream, and the ledger counts are sums.
func (e *Engine) knnPhase(out *[]Update) {
	if len(e.dirtyKNN) == 0 {
		return
	}
	dirty := e.dirtyBuf[:0]
	for qid := range e.dirtyKNN {
		dirty = append(dirty, qid)
	}
	clear(e.dirtyKNN)
	e.dirtyBuf = dirty
	for _, qid := range dirty {
		if qs, ok := e.qrys[qid]; ok {
			e.recomputeKNN(qs, out)
		}
	}
}
