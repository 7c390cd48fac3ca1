package core

import "cqp/internal/geo"

// A range query's (re)registration with a new region is the paper's
// incremental evaluation:
//
//   - negative updates for current members no longer inside the new
//     region (the members lying in A_old − A_new);
//   - positive updates from evaluating only A_new − A_old against the
//     grid;
//   - the overlap A_new ∩ A_old is not re-evaluated — its membership is
//     already reflected in the stored answer.
//
// It is split into gatherRange, a pure read, and applyRange, which does
// every write; phase 2 (queryPhase, join.go) gathers the range moves of
// a step up front and applies them in net-report order.

// applyRangeUpdate evaluates a range report where it stands in phase
// 2's walk (a registration, fresh or after a removal or kind change)
// with the caller's scratch, whose counts join adds to Stats.
func (e *Engine) applyRangeUpdate(qs *queryState, newRegion geo.Rect, out *[]Update) {
	j, ch := e.js[0], &e.inline
	ch.props, ch.ends, j.ch = ch.props[:0], ch.ends[:0], ch
	j.gatherRange(qs, newRegion)
	e.applyRange(qs, newRegion, ch, 0, out)
}

// gatherRange proposes to retract the members of qs that newRegion no
// longer contains, then to admit the objects in A_new − A_old not yet in
// its answer, and records where its proposals end.
func (j *joinScratch) gatherRange(qs *queryState, newRegion geo.Rect) {
	e, ch := j.e, j.ch
	// Negatives: the member set is exactly the objects in A_old, so
	// testing members against A_new is the A_old − A_new evaluation.
	j.members = qs.answer.AppendTo(j.members[:0])
	for _, h := range j.members {
		j.checks++
		if !newRegion.Contains(e.objsByH[h].loc) {
			ch.props = append(ch.props, memberProposal{qs.h, h, false})
		}
	}

	// Positives: evaluate only the newly covered area.
	if qs.registered {
		j.diff = newRegion.Difference(qs.region, j.diff)
	} else {
		j.diff = append(j.diff[:0], newRegion)
	}
	j.curQS = qs
	for _, piece := range j.diff {
		j.cells += uint64(e.g.CountCells(piece))
		e.g.VisitObjectsIn(piece, j.rangeC)
	}
	j.curQS = nil
	ch.ends = append(ch.ends, int32(len(ch.props)))
}

// applyRange applies the k-th range report gathered in ch: it retracts
// the negatives, admits the positives (a candidate lying on an edge two
// difference pieces share was gathered twice; setMember drops the
// second), and re-registers the region in the shared grid.
func (e *Engine) applyRange(qs *queryState, newRegion geo.Rect, ch *chunk, k int, out *[]Update) {
	start := int32(0)
	if k > 0 {
		start = ch.ends[k-1]
	}
	e.applyProps(ch.props[start:ch.ends[k]], out)
	if qs.registered {
		e.g.MoveRegion(qkeyH(qs.h, Range), qs.region, newRegion)
	} else {
		e.g.InsertRegion(qkeyH(qs.h, Range), newRegion)
		qs.registered = true
	}
	qs.region = newRegion
}
