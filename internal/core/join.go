package core

import (
	"runtime"
	"sync/atomic"

	"cqp/internal/geo"
	"cqp/internal/grid"
)

// This file is the query-update join: phases 2–4 of a Step. Each phase
// is a gather, which reads engine state and writes only its own
// scratch, and a serial apply, which does every write in the order a
// one-at-a-time evaluation would. A phase's items are gathered in
// chunks of forkChunk, claimed in order by the caller and, in a phase
// of more than one chunk, by helper goroutines (fork); the caller
// applies the chunks in order, gathering the next unclaimed chunk
// itself while the one it needs is not done. Two invariants carry this:
//
//   - No apply writes what a gather of its phase reads, other than its
//     own item's state after that item's gather, so the stream and the
//     ledger do not depend on who gathered which chunk.
//   - Applies overlap the helpers' gathers, so an apply may write in
//     the grid only what the grid's concurrency contract (package grid)
//     lets a writer change under a reader: phases 2 and 4 insert, move
//     and remove query regions while gathers visit object slabs
//     (VisitObjectsIn, CountCells, KNearestAppend); phase 3's applies
//     write nothing in the grid, and its gathers read region slabs. A
//     grid change must keep region writes and object reads disjoint.
//
// Per phase:
//
//   - Phase 2 (queryPhase) walks the batch's net query reports (see
//     Batch), one per query, in first-arrival order. The move of a
//     registered range query the batch did not remove is gathered
//     (gatherRange, rangeq.go): it reads the query's own answer and
//     region, which only its own apply writes, and object slabs, which
//     phase 2 does not write. Other reports apply where they stand
//     (applyQueryUpdate).
//   - Phase 3 (objectJoinPhase) joins each distinct moved object once,
//     at its state at the step boundary: a gather reads the object's
//     QList, query regions and windows, region slabs, and kNN answers;
//     an apply writes the object's QList and range and predictive
//     answers.
//   - Phase 4 (knnPhase) searches each dirty kNN query exactly, reading
//     object slabs; recomputeKNN (knn.go) applies its diff.
//
// In phase 3, all proposals for one (query, object) pair carry the
// same sign (a drop test and an add probe evaluate the same predicate,
// so they cannot both fire), and setMember suppresses same-sign
// duplicates against the live answer, so the emitted multiset does not
// depend on the order the moved objects are visited in; the step's
// canonical sort (sort.go) then fixes the stream.

// forkChunk is the number of items in a chunk. A phase of more than
// one chunk forks as many helpers as it has further chunks and the
// budget has CPUs; a phase of one chunk runs on the caller alone.
const forkChunk = 64

// helpers counts the helper goroutines of every engine in the process:
// at most GOMAXPROCS−1 run at once, so the tile engines of a router
// cannot oversubscribe the CPUs, and an engine that forks while the
// others idle gets the idle CPUs.
var helpers atomic.Int32

// memberProposal is one membership decision produced by a gather and
// applied serially afterwards, by handle.
type memberProposal struct {
	qh, oh int32
	in     bool
}

// chunk holds one chunk's findings until the caller applies them; the
// gatherer sets done when they are complete.
type chunk struct {
	done  atomic.Bool
	props []memberProposal
	dirty []int32         // phase 3: query handles to mark kNN-dirty
	nbrs  []grid.Neighbor // phase 4: the dirty queries' neighbours
	ends  []int32         // where each item's props (phase 2) or nbrs (phase 4) end
}

// joinScratch is one gatherer's scratch: the chunk it fills, its share
// of the ledger, the membership stamp filter, and pre-bound grid-visit
// callbacks. Backing buffers and callbacks are retained across Steps,
// which keeps the join allocation-free at steady state.
type joinScratch struct {
	e             *Engine
	ch            *chunk
	checks, cells uint64 // CandidateChecks, RegionEvalCells of the gather

	members []int32 // a range query's answer, snapshot
	diff    []geo.Rect
	curQS   *queryState // the range query being gathered
	rangeC  func(uint64, geo.Point) bool

	// qStamp is an epoch-stamped membership filter for the phase-3
	// candidate probe: qStamp[qh] == stampCur exactly when the moved
	// object currently being gathered is a member of query qh's answer.
	// It is rebuilt per object from the object's own QList — walked
	// anyway for the drop side — so the probe rejects the dominant
	// already-a-member case with one flat array load, touching neither
	// the (cold) query state nor its answer set. Sized to the query
	// handle table by gatherMoved; resizing resets the epoch.
	qStamp   []uint32
	stampCur uint32

	curOS *objectState // the moved object being gathered, read by the callbacks

	objRegionsCB func(uint64, geo.Rect) bool // candidate probe at curOS.loc
	sweptCellCB  func(int) bool              // predictive swept-box walk
	sweptRegCB   func(uint64, geo.Rect) bool

	knnBuf []grid.Neighbor // one kNN search
}

// newJoinScratch returns a scratch with its grid-visit callbacks bound
// (a fresh closure per visit escapes to the heap; these visit millions
// of candidates per second).
func (e *Engine) newJoinScratch() *joinScratch {
	j := &joinScratch{e: e}
	j.rangeC = func(k uint64, _ geo.Point) bool {
		j.checks++
		// Candidates from the region difference A_new − A_old can still
		// be members: phase 1 moves objects before the query phase, so
		// a member may sit in the new area under its new location while
		// its membership dates from the old one.
		if h := int32(k >> 1); !j.curQS.answer.Has(h) {
			j.ch.props = append(j.ch.props, memberProposal{j.curQS.h, h, true})
		}
		return true
	}
	j.objRegionsCB = func(k uint64, r geo.Rect) bool {
		if !keyIsQuery(k) {
			return true
		}
		os := j.curOS
		j.checks++
		// The kind comes from the key and the region from the slab the
		// grid is already walking, so the common non-matching candidate
		// is rejected without touching the (cold) query state at all.
		switch keyKind(k) {
		case Range:
			// The stamp filter keeps the common case — a moved object
			// still inside a region it was in — out of the apply.
			if r.Contains(os.loc) && j.qStamp[k>>3] != j.stampCur {
				j.ch.props = append(j.ch.props, memberProposal{int32(k >> 3), os.h, true})
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
					j.ch.dirty = append(j.ch.dirty, qs.h)
				}
			}
		case PredictiveRange:
			if os.kind == Predictive && j.qStamp[k>>3] != j.stampCur {
				if qs := e.qrysByH[k>>3]; e.predictiveMatch(qs, os) {
					j.ch.props = append(j.ch.props, memberProposal{qs.h, os.h, true})
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
		j.checks++
		if e.predictiveMatch(qs, j.curOS) {
			j.ch.props = append(j.ch.props, memberProposal{qs.h, j.curOS.h, true})
		}
		return true
	}
	j.sweptCellCB = func(ci int) bool {
		e.g.VisitRegionsInCell(ci, j.sweptRegCB)
		return true
	}
	return j
}

// fork starts a phase's gather of n items and one helper per further
// chunk as far as the budget allows. The caller
// then takes the chunks in order with await, and calls join.
func (e *Engine) fork(n int, gather func(j *joinScratch, lo, hi int)) {
	e.n, e.gather = n, gather
	e.nChunks = (n + forkChunk - 1) / forkChunk
	e.next.Store(0)
	for len(e.chunks) < e.nChunks {
		e.chunks = append(e.chunks, new(chunk))
	}
	for _, ch := range e.chunks[:e.nChunks] {
		ch.done.Store(false)
	}
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	w := 1
	for ; w < e.nChunks; w++ {
		if helpers.Add(1) > limit {
			helpers.Add(-1)
			break
		}
		if w == len(e.js) {
			e.js = append(e.js, e.newJoinScratch())
		}
		e.wg.Add(1)
		go e.runHelper(e.js[w])
	}
	if w > 1 {
		e.m.parallelPhases.Inc()
	}
}

// runHelper gathers chunks until none is left, then returns the helper
// to the budget.
func (e *Engine) runHelper(j *joinScratch) {
	defer e.wg.Done()
	defer helpers.Add(-1)
	for e.gatherNext(j) {
	}
}

// gatherNext claims the next unclaimed chunk and gathers it with j's
// scratch, or reports that none is left.
func (e *Engine) gatherNext(j *joinScratch) bool {
	c := int(e.next.Add(1)) - 1
	if c >= e.nChunks {
		return false
	}
	ch := e.chunks[c]
	ch.props, ch.dirty, ch.nbrs, ch.ends = ch.props[:0], ch.dirty[:0], ch.nbrs[:0], ch.ends[:0]
	j.ch = ch
	e.gather(j, c*forkChunk, min((c+1)*forkChunk, e.n))
	ch.done.Store(true)
	return true
}

// await returns chunk c's findings, gathering chunks on the caller
// until c is done. Chunks are claimed in order, so while c is not
// done, every chunk the caller can still claim lies at or after c.
func (e *Engine) await(c int) *chunk {
	ch := e.chunks[c]
	for !ch.done.Load() {
		if !e.gatherNext(e.js[0]) {
			runtime.Gosched() // a helper is finishing c
		}
	}
	return ch
}

// join waits for the phase's helpers and adds the gather's ledger
// counts to Stats.
func (e *Engine) join() {
	e.wg.Wait()
	for _, j := range e.js {
		e.stats.CandidateChecks += j.checks
		e.stats.RegionEvalCells += j.cells
		j.checks, j.cells = 0, 0
	}
}

// ---------------------------------------------------------------------------
// Phase 2: query re-registrations.

// queryPhase applies the step's net query reports in first-arrival
// order, gathering the move of every registered range query the batch
// did not remove.
func (e *Engine) queryPhase(out *[]Update) {
	qsOf := e.qsOf[:0]
	for _, n := range e.batch.queries {
		qs := e.qrys[n.Last.ID]
		if qs != nil && (n.Removed || n.Last.Kind != Range || qs.kind != Range || !qs.registered) {
			qs = nil
		}
		qsOf = append(qsOf, qs)
	}
	e.qsOf = qsOf
	e.fork(len(qsOf), (*joinScratch).gatherRanges)
	var ch *chunk
	k := 0 // ch's next gathered report
	for i, n := range e.batch.queries {
		if i%forkChunk == 0 {
			ch, k = e.await(i/forkChunk), 0
		}
		e.stats.QueryReports++
		u := n.Last
		if n.Removed {
			e.removeQuery(u.ID)
		}
		if u.Remove {
			continue
		}
		if qs := qsOf[i]; qs != nil {
			qs.t = u.T
			e.applyRange(qs, u.Region, ch, k, out)
			k++
		} else {
			e.applyQueryUpdate(u, out)
		}
	}
	e.join()
	clear(qsOf)
}

// gatherRanges gathers the net reports lo..hi-1 that queryPhase selected.
func (j *joinScratch) gatherRanges(lo, hi int) {
	for i := lo; i < hi; i++ {
		if qs := j.e.qsOf[i]; qs != nil {
			j.gatherRange(qs, j.e.batch.queries[i].Last.Region)
		}
	}
}

// ---------------------------------------------------------------------------
// Phase 3: moved-object join.

// objectJoinPhase joins every changed object against the registered
// queries: membership re-checks plus grid candidate probes, gathered,
// then applied in chunk order: dirty marks and membership proposals
// (deduplicated by setMember).
func (e *Engine) objectJoinPhase(live []*objectState, out *[]Update) {
	if len(live) == 0 {
		return
	}
	e.live = live
	e.fork(len(live), (*joinScratch).gatherMoved)
	for c := 0; c < e.nChunks; c++ {
		ch := e.await(c)
		e.stats.JoinFindings += uint64(len(ch.props) + len(ch.dirty))
		for _, qh := range ch.dirty {
			e.dirtyKNN[e.qrysByH[qh].id] = struct{}{}
		}
		e.applyProps(ch.props, out)
	}
	e.join()
	e.live = nil
}

// applyProps applies membership proposals in order through setMember,
// which drops a proposal the answer already reflects.
func (e *Engine) applyProps(props []memberProposal, out *[]Update) {
	for _, p := range props {
		e.setMember(e.qrysByH[p.qh], e.objsByH[p.oh], p.in, out)
	}
}

// gatherMoved gathers the live moved objects lo..hi-1.
func (j *joinScratch) gatherMoved(lo, hi int) {
	e := j.e
	if len(j.qStamp) < len(e.qrysByH) {
		// Query population grew: new zeroed array, fresh epoch. Steady
		// state never resizes, so the hot path stays allocation-free.
		j.qStamp = make([]uint32, len(e.qrysByH))
		j.stampCur = 0
	}
	for _, os := range e.live[lo:hi] {
		j.gatherMovedObject(os)
	}
}

// gatherMovedObject is the object side of the spatial join, a pure
// read: it re-checks the object's existing memberships against current
// query state and probes the grid for newly satisfied candidate
// queries, appending its findings to the scratch.
func (j *joinScratch) gatherMovedObject(os *objectState) {
	e := j.e
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
		j.checks++
		switch qs.kind {
		case Range:
			if !qs.region.Contains(os.loc) {
				j.ch.props = append(j.ch.props, memberProposal{qs.h, os.h, false})
			}
		case KNN:
			// Any movement of a member can reorder the k nearest.
			j.ch.dirty = append(j.ch.dirty, qs.h)
		case PredictiveRange:
			if !e.predictiveMatch(qs, os) {
				j.ch.props = append(j.ch.props, memberProposal{qs.h, os.h, false})
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
// apply writes (it moves its query's region entries), so each query's
// diff is the same in any order; the canonical sort orders the stream,
// and the ledger counts are sums.
func (e *Engine) knnPhase(out *[]Update) {
	if len(e.dirtyKNN) == 0 {
		return
	}
	dirty := e.dirtyBuf[:0]
	for qid := range e.dirtyKNN {
		if qs, ok := e.qrys[qid]; ok {
			dirty = append(dirty, qs)
		}
	}
	clear(e.dirtyKNN)
	e.dirtyBuf = dirty
	e.fork(len(dirty), (*joinScratch).searchKNN)
	for c := 0; c < e.nChunks; c++ {
		ch := e.await(c)
		start := int32(0)
		for i, end := range ch.ends {
			e.recomputeKNN(dirty[c*forkChunk+i], ch.nbrs[start:end], out)
			start = end
		}
	}
	e.join()
	clear(dirty)
}

// searchKNN runs the exact searches of the dirty kNN queries lo..hi-1.
func (j *joinScratch) searchKNN(lo, hi int) {
	ch := j.ch
	for _, qs := range j.e.dirtyBuf[lo:hi] {
		j.knnBuf = j.e.g.KNearestAppend(j.knnBuf, qs.focal, qs.k, j.e.knnRank)
		ch.nbrs = append(ch.nbrs, j.knnBuf...)
		ch.ends = append(ch.ends, int32(len(ch.nbrs)))
	}
}
