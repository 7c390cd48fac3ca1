package shard

import (
	"fmt"
	"slices"

	"cqp/internal/core"
)

// Repartitioning: split hot tiles, merge cold sibling pairs, and move
// the affected state through the ordinary migration and replication
// paths so the merged update stream never shows a seam.
//
// The tiling is a binary split forest (see tnode): splitting a leaf
// cuts its rectangle in half along the longer axis at the arithmetic
// midpoint — an exact partition, so point ownership stays well defined
// — and merging rejoins two sibling leaves into their parent's
// rectangle, served by a fresh tile id. Tile ids are never reused;
// retired slots hold nil.
//
// The handoff protocol for one operation, entirely inside the step that
// applies it (before any buffered report is routed):
//
//  1. Flip liveness: the dying tiles leave the live set, the born tiles
//     join it. Routing and coverage computations now see the new
//     partition, while the dying transports stay up for step 3.
//  2. Re-home state. Every object owned by a dying tile is removed from
//     it and inserted — from the router's last full report — into the
//     born tile owning its location; this is exactly the cross-tile
//     migration path. Every query whose coverage touches a dying tile
//     has its coverage recomputed against the new live set and its
//     definition forwarded to the newly covered (born) tiles; this is
//     exactly the replication path. Both walks are in sorted id order,
//     so the handoff is replay-stable.
//  3. Sub-step the dying and born tiles together at the step's own
//     timestamp and absorb their batches as one round: the dying
//     replicas retract every member the born replicas simultaneously
//     assert, each pair nets to no change in fold, and the merged
//     stream is bit-identical to a run that never repartitioned. (A
//     kNN answer likewise cannot change: candidacy moves between tiles
//     but the candidate set and all distances are preserved.)
//  4. Destroy the dying transports.
//
// The policy (maybeRepartition) runs in every router. Its one signal
// is each tile's queue depth at broadcast, the shard.queue_depth
// observation, folded into a per-tile EWMA by stepAll. The depth is a
// pure function of the reports, so the partition, and with it the work
// ledger, is the same whether or not metrics and a clock are on. A
// router whose tiles carry equal load never repartitions; one tile is
// always at the mean and never splits.

// repartOp is one queued repartition request.
type repartOp struct {
	split bool
	tile  int
}

// SplitTile requests that live tile t be split in half at the start of
// the next Step. The request is validated now and re-checked at apply
// time (a competing operation may have retired the tile by then, in
// which case it is dropped).
func (e *Engine) SplitTile(t int) error {
	if t < 0 || t >= len(e.tstate) || !e.tstate[t].live {
		return fmt.Errorf("shard: SplitTile(%d): not a live tile", t)
	}
	e.pendingOps = append(e.pendingOps, repartOp{split: true, tile: t})
	return nil
}

// MergeTile requests that live tile t and its forest sibling be merged
// back into their parent rectangle at the start of the next Step. The
// sibling must also be a leaf (i.e. a live tile); roots of the initial
// grid have no sibling and cannot merge.
func (e *Engine) MergeTile(t int) error {
	if t < 0 || t >= len(e.tstate) || !e.tstate[t].live {
		return fmt.Errorf("shard: MergeTile(%d): not a live tile", t)
	}
	if e.mergeableParent(t) < 0 {
		return fmt.Errorf("shard: MergeTile(%d): no live sibling leaf to merge with", t)
	}
	e.pendingOps = append(e.pendingOps, repartOp{tile: t})
	return nil
}

// mergeableParent returns the forest node whose two children are both
// live leaves and one of them is tile t, or -1.
func (e *Engine) mergeableParent(t int) int {
	n := e.tstate[t].node
	p := e.nodes[n].parent
	if p < 0 {
		return -1
	}
	k0, k1 := e.nodes[p].kids[0], e.nodes[p].kids[1]
	if k0 < 0 || k1 < 0 {
		return -1
	}
	if e.nodes[k0].tile < 0 || e.nodes[k1].tile < 0 {
		return -1
	}
	return p
}

// runRepartitions applies the queued manual operations, then the
// periodic load policy. Called at the very start of StepAppend, before
// any buffered report is routed.
func (e *Engine) runRepartitions(m *mergeState) {
	changed := false
	for _, op := range e.pendingOps {
		if !e.tstate[op.tile].live {
			continue // retired by an earlier queued op
		}
		if op.split {
			e.splitNow(m, op.tile)
			changed = true
		} else if p := e.mergeableParent(op.tile); p >= 0 {
			e.mergeNow(m, p)
			changed = true
		}
	}
	e.pendingOps = e.pendingOps[:0]
	if e.maybeRepartition(m) {
		changed = true
	}
	if changed {
		e.m.tiles.Set(int64(len(e.live)))
		e.observeTileArea()
	}
}

// maybeRepartition runs the load policy: every repartitionInterval
// steps, split the hottest tile if its load exceeds splitFactor × the
// mean (and the partition has fewer than maxTilesFactor × its initial
// tiles), otherwise merge the coldest sibling-leaf pair whose combined
// load is below mergeFactor × the mean. At most one operation per
// check keeps the partition from thrashing. Reports whether an
// operation ran.
func (e *Engine) maybeRepartition(m *mergeState) bool {
	if e.stepSeq%repartitionInterval != 0 {
		return false
	}
	mean := 0.0
	for _, id := range e.live {
		mean += e.loadEW[id]
	}
	mean /= float64(len(e.live))
	if mean <= 0 {
		return false
	}
	hot, hotScore := -1, 0.0
	for _, id := range e.live {
		if s := e.loadEW[id]; s > hotScore {
			hot, hotScore = id, s
		}
	}
	if hot >= 0 && len(e.live) < maxTilesFactor*e.opt.Rows*e.opt.Cols && hotScore > splitFactor*mean {
		e.splitNow(m, hot)
		return true
	}
	// Coldest mergeable sibling pair, scanning nodes in creation order
	// for determinism.
	bestP, bestScore := -1, 0.0
	for p := range e.nodes {
		k0, k1 := e.nodes[p].kids[0], e.nodes[p].kids[1]
		if k0 < 0 || k1 < 0 {
			continue
		}
		t0, t1 := e.nodes[k0].tile, e.nodes[k1].tile
		if t0 < 0 || t1 < 0 {
			continue
		}
		if s := e.loadEW[t0] + e.loadEW[t1]; bestP < 0 || s < bestScore {
			bestP, bestScore = p, s
		}
	}
	if bestP >= 0 && bestScore < mergeFactor*mean {
		e.mergeNow(m, bestP)
		return true
	}
	return false
}

// splitNow splits live tile id into two halves along its rectangle's
// longer axis.
func (e *Engine) splitNow(m *mergeState, id int) {
	st := e.tstate[id]
	r := st.rect
	r1, r2 := r, r
	if r.Width() >= r.Height() {
		mid := (r.MinX + r.MaxX) / 2
		r1.MaxX = mid
		r2.MinX = mid
	} else {
		mid := (r.MinY + r.MaxY) / 2
		r1.MaxY = mid
		r2.MinY = mid
	}
	e.deactivateTile(id)
	n := st.node
	c1 := e.newNode(r1, n)
	c2 := e.newNode(r2, n)
	e.nodes[n].kids = [2]int{c1, c2}
	t1 := e.mustAttach(c1)
	t2 := e.mustAttach(c2)
	// The halves inherit the parent's load estimate in equal shares:
	// the policy keeps a plausible score until fresh observations
	// arrive, instead of seeing two idle-looking tiles.
	e.loadEW[t1], e.loadEW[t2] = e.loadEW[id]/2, e.loadEW[id]/2
	e.handoff(m, []int{id}, []int{t1, t2})
	e.destroyTile(id)
	e.m.tileSplits.Inc()
}

// mergeNow merges the two live leaf children of forest node p back into
// p's rectangle, served by a fresh tile.
func (e *Engine) mergeNow(m *mergeState, p int) {
	k0, k1 := e.nodes[p].kids[0], e.nodes[p].kids[1]
	a, b := e.nodes[k0].tile, e.nodes[k1].tile
	e.deactivateTile(a)
	e.deactivateTile(b)
	e.nodes[p].kids = [2]int{-1, -1}
	c := e.mustAttach(p)
	e.loadEW[c] = e.loadEW[a] + e.loadEW[b]
	e.handoff(m, []int{a, b}, []int{c})
	e.destroyTile(a)
	e.destroyTile(b)
	e.m.tileMerges.Inc()
}

// mustAttach attaches a tile for node n, panicking on factory failure:
// a repartition runs mid-step and has no error path. A factory given
// options that New already validated does not fail.
func (e *Engine) mustAttach(n int) int {
	id, err := e.attachTile(n)
	if err != nil {
		panic(fmt.Sprintf("shard: tile factory failed during repartition: %v", err))
	}
	return id
}

// handoff re-homes every object and query replica held by the dying
// tiles onto the born tiles and nets the transition out of the merged
// stream. See the package comment at the top of this file for the
// protocol; liveness has already been flipped when this runs.
func (e *Engine) handoff(m *mergeState, dying, born []int) {
	isDying := func(t int) bool {
		for _, d := range dying {
			if t == d {
				return true
			}
		}
		return false
	}

	// Objects, in id order.
	var oids []core.ObjectID
	for oid, info := range e.objs {
		if isDying(info.tile) {
			oids = append(oids, oid)
		}
	}
	slices.Sort(oids)
	for _, oid := range oids {
		info := e.objs[oid]
		nt := e.tileOf(info.last.Loc)
		e.tiles[info.tile].ReportObject(core.ObjectUpdate{ID: oid, Remove: true})
		e.objCount[info.tile]--
		e.objCount[nt]++
		info.tile = nt
		e.tiles[nt].ReportObject(info.last)
	}

	// Queries, in id order.
	var qids []core.QueryID
	for qid, qi := range e.qrys {
		for _, t := range qi.coverage {
			if isDying(t) {
				qids = append(qids, qid)
				break
			}
		}
	}
	slices.Sort(qids)
	bornSorted := append([]int(nil), born...)
	slices.Sort(bornSorted)
	for _, qid := range qids {
		qi := e.qrys[qid]
		var newCov []int
		switch qi.kind {
		case core.Range:
			newCov = e.tilesOverlapping(qi.region, nil)
		case core.PredictiveRange:
			newCov = e.predictiveCoverage(qi.region, nil)
		case core.KNN:
			// Conservative: keep every surviving replica (coverage is
			// monotone for kNN) and cover every born tile — a born tile
			// inherits part of a dying replica's space, so its objects
			// may be candidates. The settle fixpoint keeps correcting
			// the radius from here.
			keep := make([]int, 0, len(qi.coverage))
			for _, t := range qi.coverage {
				if !isDying(t) {
					keep = append(keep, t)
				}
			}
			newCov = unionSorted(make([]int, 0, len(keep)+len(bornSorted)), keep, bornSorted)
		}
		def := e.queryDef(qi)
		for _, t := range newCov {
			if covHas(qi.coverage, t) {
				continue
			}
			dc := def
			if qi.kind == core.Range {
				dc.Region = e.clipRegion(qi.region, t)
			}
			e.tiles[t].ReportQuery(dc)
		}
		// No removal is sent to the dying replicas: their whole engine
		// is discarded after the sub-step, and the sub-step itself must
		// still see the replica so it retracts its members.
		qi.coverage = newCov
	}

	// Sub-step dying and born together; the fold nets the −/+ pairs to
	// silence.
	parts := append(append(make([]int, 0, len(dying)+len(born)), dying...), born...)
	slices.Sort(parts)
	e.absorb(m, e.stepTiles(parts, e.now))
}

// queryDef reconstructs the full (unclipped) definition update of a
// query from the router's record, for forwarding to a fresh replica.
func (e *Engine) queryDef(qi *queryInfo) core.QueryUpdate {
	u := core.QueryUpdate{ID: qi.id, Kind: qi.kind, T: qi.t}
	switch qi.kind {
	case core.Range:
		u.Region = qi.region
	case core.PredictiveRange:
		u.Region = qi.region
		u.T1, u.T2 = qi.t1, qi.t2
	case core.KNN:
		u.Focal = qi.focal
		u.K = qi.k
	}
	return u
}
