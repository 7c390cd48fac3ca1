package shard

import (
	"slices"

	"cqp/internal/core"
)

// ReportObject buffers an object update for the next Step.
func (e *Engine) ReportObject(u core.ObjectUpdate) {
	e.objBuf = append(e.objBuf, u)
}

// ReportQuery buffers a query registration, movement, or removal for
// the next Step.
func (e *Engine) ReportQuery(u core.QueryUpdate) {
	e.qryBuf = append(e.qryBuf, u)
}

// mergeState is the scratch state of one router Step: the KNN queries
// needing a global re-rank, the queries and objects removed in this
// batch, the fold's reusable buffers, and the merged output. It lives on the
// Engine and is reset, not reallocated, every step.
type mergeState struct {
	knnDirty map[core.QueryID]struct{}

	removedQrys map[core.QueryID]*queryInfo
	removedObjs map[core.ObjectID]struct{}

	// resetQrys are queries whose merge state restarted from empty this
	// step (a kind change, or a removal followed by a re-registration
	// under the same ID). After core.Protocol, a reset query's only
	// report in its batch is that fresh registration, so its negatives
	// all come from the old incarnation (say, a removed object re-added
	// in another tile) and must not fold into the fresh membership.
	resetQrys map[core.QueryID]struct{}

	// Scratch reused by every absorb round: per-batch read cursors, one
	// query's per-tile runs, and the fold's output membership.
	cursors []int
	runs    [][]core.Update
	memBuf  []core.ObjectID

	out []core.Update
}

// beginMerge resets the engine's merge scratch for a new step.
func (e *Engine) beginMerge(out []core.Update) *mergeState {
	m := &e.merge
	if m.knnDirty == nil {
		m.knnDirty = make(map[core.QueryID]struct{})
		m.removedQrys = make(map[core.QueryID]*queryInfo)
		m.removedObjs = make(map[core.ObjectID]struct{})
		m.resetQrys = make(map[core.QueryID]struct{})
	} else {
		clear(m.knnDirty)
		clear(m.removedQrys)
		clear(m.removedObjs)
		clear(m.resetQrys)
	}
	m.out = out
	return m
}

// Step routes every buffered report to its tile(s), runs all tile
// engines in parallel at time now, and merges their update streams into
// the exact global incremental answer stream. See core.Engine.Step for
// the contract; the returned slice is freshly allocated and in the
// canonical order of core.SortUpdates.
func (e *Engine) Step(now float64) []core.Update {
	return e.StepAppend(nil, now)
}

// StepAppend is Step appending into a caller-owned buffer; see
// core.Engine.StepAppend for the contract.
func (e *Engine) StepAppend(out []core.Update, now float64) []core.Update {
	base := len(out)
	begin := e.m.tracer.Begin()
	e.stats.Steps++
	m := e.beginMerge(out)

	e.routeObjects(m)
	e.routeQueries(m)

	e.absorb(m, e.stepAll(now))
	e.settleKNNQueries(m, now)

	e.objBuf = e.objBuf[:0]
	e.qryBuf = e.qryBuf[:0]
	core.SortUpdates(m.out[base:])

	for _, u := range m.out[base:] {
		if u.Positive {
			e.stats.PositiveUpdates++
		} else {
			e.stats.NegativeUpdates++
		}
	}
	emitted := len(m.out) - base
	e.m.steps.Inc()
	e.m.mergedUpdates.Add(uint64(emitted))
	e.m.lastEmitted.Set(int64(emitted))
	e.m.tileObjectsMax.Set(int64(slices.Max(e.objCount)))
	e.m.tracer.End(e.m.stepLatency, begin)
	out = m.out
	m.out = nil
	return out
}

// routeObjects applies the buffered object reports to the routing table
// and forwards each to the tile owning the new location, splitting
// cross-tile moves into a removal (old tile) plus an insertion (new
// tile) so the old tile's queries still see their negative updates.
func (e *Engine) routeObjects(m *mergeState) {
	maxSpeed := e.opt.Core.MaxSpeed
	for i := range e.objBuf {
		u := e.objBuf[i]
		e.stats.ObjectReports++
		if u.Remove {
			info, ok := e.objs[u.ID]
			if !ok {
				continue
			}
			e.tiles[info.tile].ReportObject(core.ObjectUpdate{ID: u.ID, Remove: true})
			e.objCount[info.tile]--
			delete(e.objs, u.ID)
			m.removedObjs[u.ID] = struct{}{}
			e.markCandidateQueries(m, u.ID)
			continue
		}
		if !core.AcceptObject(&u, maxSpeed) {
			continue // the tiles would reject it: no migration either
		}
		clamped := e.clampToBounds(u.Loc)
		if info, ok := e.objs[u.ID]; ok {
			t := info.tile
			if !e.ownsPoint(e.rects[t], clamped) {
				t = e.tileOf(u.Loc)
			}
			if info.tile != t {
				e.m.migrations.Inc()
				e.tiles[info.tile].ReportObject(core.ObjectUpdate{ID: u.ID, Remove: true})
				e.objCount[info.tile]--
				e.objCount[t]++
				info.tile = t
			}
			info.last = u
			e.tiles[t].ReportObject(u)
		} else {
			t := e.tileOf(u.Loc)
			e.objs[u.ID] = &objInfo{tile: t, last: u}
			e.objCount[t]++
			e.tiles[t].ReportObject(u)
		}
		e.markCandidateQueries(m, u.ID)
	}
}

// markCandidateQueries schedules a global re-rank for every KNN query
// holding the object as a merge candidate: its distance changed even if
// no tile reports a membership change.
func (e *Engine) markCandidateQueries(m *mergeState, id core.ObjectID) {
	for qid := range e.candKNN[id] {
		m.knnDirty[qid] = struct{}{}
	}
}

// routeQueries applies the buffered query reports: removals are
// forwarded to every replica, registrations and movements update the
// replication coverage and are forwarded to it.
func (e *Engine) routeQueries(m *mergeState) {
	for i := range e.qryBuf {
		u := e.qryBuf[i]
		e.stats.QueryReports++
		if u.Remove {
			qi, ok := e.qrys[u.ID]
			if !ok {
				continue
			}
			for _, t := range qi.coverage {
				e.tiles[t].ReportQuery(core.QueryUpdate{ID: u.ID, Remove: true})
			}
			e.detachCandidates(qi)
			delete(e.qrys, u.ID)
			// Keep the record until the merge completes: tiles may have
			// emitted phase-1 negatives for this query (an object removal
			// processed before the removal of the query), exactly as the
			// single engine does.
			m.removedQrys[u.ID] = qi
			continue
		}
		if !u.Kind.Valid() {
			continue // mirror core: unknown kind, no side effects
		}
		e.applyQueryUpdate(m, u)
	}
}

// applyQueryUpdate registers or moves one query at the router: it
// recomputes the replication coverage for the new definition and
// forwards the update to every tile that holds — or must now hold — a
// replica. Range replicas receive the region clipped to their tile's
// halo-expanded extent (membership of owned objects is invariant under
// the clip, see clipRegion), so a tile's spatial index never registers
// interest far outside its own region.
func (e *Engine) applyQueryUpdate(m *mergeState, u core.QueryUpdate) {
	qi, exists := e.qrys[u.ID]
	switch {
	case !exists:
		// If the same ID was removed earlier in this batch, old replicas
		// may still stream stale negatives: mark the reset. A fresh ID
		// has no old replica, so its negatives all count.
		qi = &queryInfo{id: u.ID, kind: u.Kind}
		e.qrys[u.ID] = qi
		if _, removed := m.removedQrys[u.ID]; removed {
			m.resetQrys[u.ID] = struct{}{}
		}
	case qi.kind != u.Kind:
		// Kind change: core tears the query down silently (no negative
		// updates) and starts fresh. The replicas handle the change
		// themselves; only the merge state resets here. Stale replicas
		// outside the new coverage are removed below.
		e.detachCandidates(qi)
		qi.answer = qi.answer[:0]
		qi.cands = qi.cands[:0]
		qi.radius = 0
		qi.kind = u.Kind
		m.resetQrys[u.ID] = struct{}{}
	}

	qi.t = u.T
	newCov := e.covBuf[:0]
	switch u.Kind {
	case core.Range:
		newCov = e.tilesOverlapping(u.Region, newCov)
	case core.PredictiveRange:
		newCov = e.predictiveCoverage(u.Region, newCov)
	case core.KNN:
		qi.focal = u.Focal
		qi.k = u.K
		// Coverage is monotone for a KNN query: every tile that ever
		// held a replica keeps receiving updates (a stale replica would
		// contribute stale candidates). The focal circle uses the
		// previous radius; the post-step fixpoint corrects it.
		grown := e.knnCoverage(u.Focal, qi.radius, e.covBuf2[:0])
		newCov = unionSorted(newCov, qi.coverage, grown)
		e.covBuf2 = grown[:0]
		m.knnDirty[qi.id] = struct{}{}
	}
	e.m.replicaFanout.Observe(int64(len(newCov)))

	for _, t := range qi.coverage {
		if covHas(newCov, t) {
			continue
		}
		// The region moved off this tile: forward the update so the
		// replica retracts its members with proper negatives, then
		// remove the now-empty replica in the same tile step. The full
		// (unclipped) region is fine here — it no longer overlaps the
		// tile, and the replica is gone within the step.
		e.tiles[t].ReportQuery(u)
		e.tiles[t].ReportQuery(core.QueryUpdate{ID: u.ID, Remove: true})
	}
	for _, t := range newCov {
		uc := u
		if u.Kind == core.Range {
			uc.Region = e.clipRegion(u.Region, t)
		}
		e.tiles[t].ReportQuery(uc)
	}
	qi.coverage = append(qi.coverage[:0], newCov...)
	e.covBuf = newCov[:0]
}

// absorb folds one round of tile batches — the main broadcast or a kNN
// settle sub-step — into the merged state. Every batch is in canonical
// (Query, Object) order, so one pass walks all of them query by query,
// gathers the query's run from each batch that mentions it, in tile
// order, and hands the runs to fold. Live kNN queries touched by the
// round are scheduled for a global re-rank.
func (e *Engine) absorb(m *mergeState, batches [][]core.Update) {
	cur := m.cursors[:0]
	for range batches {
		cur = append(cur, 0)
	}
	netted := 0
	for {
		var q core.QueryID
		found := false
		for i, b := range batches {
			if cur[i] < len(b) && (!found || b[cur[i]].Query < q) {
				q, found = b[cur[i]].Query, true
			}
		}
		if !found {
			break
		}
		runs := m.runs[:0]
		for i, b := range batches {
			j := cur[i]
			for j < len(b) && b[j].Query == q {
				j++
			}
			if j > cur[i] {
				runs = append(runs, b[cur[i]:j])
				cur[i] = j
			}
		}
		m.runs = runs
		qi, live := e.qrys[q]
		if !live {
			qi = m.removedQrys[q]
		}
		if qi == nil {
			continue
		}
		if live && qi.kind == core.KNN {
			m.knnDirty[q] = struct{}{}
		}
		netted += e.fold(m, qi, live, runs)
	}
	m.cursors = cur
	e.m.netted.Add(uint64(netted))
}

// fold merges one query's per-tile runs of a round into its merged
// membership — the answer of a Range or PredictiveRange query, the
// candidate set of a KNN query — in one linear pass over the sorted
// membership and the Object-sorted runs. Per object it replays the
// refcount rule: the count starts at 1 if the object is a member, each
// positive adds 1, each negative subtracts 1 but never below 0 and
// never for a query in resetQrys, and the object stays a member iff
// the count ends positive. Every object is owned by exactly one tile,
// so a member is claimed by exactly one replica, and a retraction paired
// with an assertion — a cross-tile migration, a remove and re-add
// inside one tile — nets to no change. Each net change goes to
// transition; fold returns the number of objects that netted.
func (e *Engine) fold(m *mergeState, qi *queryInfo, live bool, runs [][]core.Update) (netted int) {
	set := &qi.answer
	if qi.kind == core.KNN {
		set = &qi.cands
	}
	_, reset := m.resetQrys[qi.id]
	old := *set
	buf := m.memBuf[:0]
	k := 0
	for {
		var o core.ObjectID
		found := false
		for _, r := range runs {
			if len(r) > 0 && (!found || r[0].Object < o) {
				o, found = r[0].Object, true
			}
		}
		if !found {
			break
		}
		for k < len(old) && old[k] < o {
			buf = append(buf, old[k])
			k++
		}
		was := k < len(old) && old[k] == o
		c := 0
		if was {
			c, k = 1, k+1
		}
		for i, r := range runs {
			for len(r) > 0 && r[0].Object == o {
				if r[0].Positive {
					c++
				} else if c > 0 && !reset {
					// A reset query's fresh replicas only accrete members
					// this step: its negatives all come from the old
					// incarnation (see mergeState.resetQrys).
					c--
				}
				r = r[1:]
			}
			runs[i] = r
		}
		in := c > 0
		if in {
			buf = append(buf, o)
		}
		if in == was {
			netted++
		} else {
			e.transition(m, qi, live, o, in)
		}
	}
	buf = append(buf, old[k:]...)
	*set = append(old[:0], buf...)
	m.memBuf = buf[:0]
	return netted
}

// transition applies one net membership change found by fold. For a
// Range or PredictiveRange query it is a merged update. For a KNN query
// it moves the object in or out of the candidate index, and settleKNN
// diffs the answer afterwards. A query removed in this batch streams
// only the phase-1 negatives of the answer members removed in it, as
// the single engine does; a member's migration retracts it from the old
// tile's replica, which must not surface as a negative, or the stream
// would depend on where the tile seams lie.
func (e *Engine) transition(m *mergeState, qi *queryInfo, live bool, o core.ObjectID, in bool) {
	switch {
	case !live:
		_, was := slices.BinarySearch(qi.answer, o)
		if _, removed := m.removedObjs[o]; was && removed && !in {
			m.out = append(m.out, core.Update{Query: qi.id, Object: o, Positive: false})
		}
	case qi.kind != core.KNN:
		m.out = append(m.out, core.Update{Query: qi.id, Object: o, Positive: in})
	case in:
		e.addCandidate(o, qi.id)
	default:
		e.dropCandidate(o, qi.id)
	}
}

func (e *Engine) addCandidate(o core.ObjectID, q core.QueryID) {
	set := e.candKNN[o]
	if set == nil {
		set = make(map[core.QueryID]struct{})
		e.candKNN[o] = set
	}
	set[q] = struct{}{}
}

func (e *Engine) dropCandidate(o core.ObjectID, q core.QueryID) {
	if set := e.candKNN[o]; set != nil {
		delete(set, q)
		if len(set) == 0 {
			delete(e.candKNN, o)
		}
	}
}

// detachCandidates removes a KNN query from the reverse candidacy index
// on removal or kind change.
func (e *Engine) detachCandidates(qi *queryInfo) {
	for _, o := range qi.cands {
		e.dropCandidate(o, qi.id)
	}
}
