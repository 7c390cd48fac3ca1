package core

import "cqp/internal/geo"

// applyRangeUpdate applies a (re)registration of a range query with the
// given new region, performing the paper's incremental evaluation:
//
//   - negative updates for current members no longer inside the new
//     region (the members lying in A_old − A_new);
//   - positive updates from evaluating only A_new − A_old against the
//     grid;
//   - the overlap A_new ∩ A_old is not re-evaluated — its membership is
//     already reflected in the stored answer.
//
// Phase 2 of a Step (queryPhase, join.go) reaches it through
// applyQueryUpdate, one report at a time in report-buffer order.
func (e *Engine) applyRangeUpdate(qs *queryState, newRegion geo.Rect, out *[]Update) {
	oldRegion := qs.region
	wasRegistered := qs.registered

	// Negatives: members whose (current) location fell out of the region.
	// The member set is exactly the objects in A_old, so testing members
	// against A_new is the A_old − A_new evaluation. (Members are
	// snapshotted into engine scratch first: setMember mutates qs.answer
	// mid-walk otherwise.)
	members := qs.answer.AppendTo(e.hBuf[:0])
	e.hBuf = members
	for _, h := range members {
		os := e.objsByH[h]
		e.stats.CandidateChecks++
		if !newRegion.Contains(os.loc) {
			e.setMember(qs, os, false, out)
		}
	}

	// Positives: evaluate only the newly covered area.
	var diff []geo.Rect
	if wasRegistered {
		diff = newRegion.Difference(oldRegion, e.diffBuf)
		e.diffBuf = diff
	} else {
		diff = append(e.diffBuf[:0], newRegion)
		e.diffBuf = diff
	}
	e.curQS, e.curOut = qs, out
	for _, piece := range diff {
		e.stats.RegionEvalCells += uint64(e.g.CountCells(piece))
		e.g.VisitObjectsIn(piece, e.rangeVisitCB)
	}
	e.curQS, e.curOut = nil, nil

	// Re-register the region in the shared grid.
	if wasRegistered {
		e.g.MoveRegion(qkeyH(qs.h, Range), oldRegion, newRegion)
	} else {
		e.g.InsertRegion(qkeyH(qs.h, Range), newRegion)
		qs.registered = true
	}
	qs.region = newRegion
}
