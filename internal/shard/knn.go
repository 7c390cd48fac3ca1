package shard

import (
	"slices"

	"cqp/internal/core"
)

// The kNN merge. Each tile replica maintains its *local* top-k: the k
// nearest of the tile's own objects. The local top-k of every covered
// tile is a superset of that tile's contribution to the global top-k,
// so the union of local answers — the merged candidate set in
// queryInfo.cands — always contains the exact global answer, provided
// the coverage is wide enough. settleKNN establishes "wide enough" as a
// fixpoint: after ranking the candidates by distance, any uncovered
// tile that could still hold a closer object (MinDist(focal, tile)
// ≤ distance to the current k-th candidate) is added to the coverage,
// the query is registered on it, only those tiles are sub-stepped at
// the same timestamp, and the loop repeats. Termination: the coverage
// only grows and is bounded by the tile count, and adding
// candidates never increases the k-th distance.
//
// A starved query (fewer than k candidates) is replicated to *every*
// tile — including currently empty ones — mirroring the core engine,
// which registers a starved query's interest region as its whole
// region. This is what guarantees a later object arrival in any tile is
// reported.

// cand is one ranked kNN merge candidate.
type cand struct {
	id   core.ObjectID
	dist float64
}

// rankedCandidates returns the query's live merge candidates ordered by
// (distance to focal, ObjectID).
func (e *Engine) rankedCandidates(qi *queryInfo) []cand {
	cands := make([]cand, 0, len(qi.cands))
	for _, o := range qi.cands {
		info, ok := e.objs[o]
		if !ok {
			continue // removed this batch; its retraction is already merged
		}
		cands = append(cands, cand{id: o, dist: info.last.Loc.Dist(qi.focal)})
	}
	slices.SortFunc(cands, compareCand)
	return cands
}

// compareCand orders merge candidates by (distance to focal, ObjectID).
func compareCand(a, b cand) int {
	if a.dist != b.dist {
		if a.dist < b.dist {
			return -1
		}
		return 1
	}
	if a.id < b.id {
		return -1
	}
	if a.id > b.id {
		return 1
	}
	return 0
}

// settleKNNQueries runs the global top-k fixpoint for every kNN query
// whose answer may have changed this step.
func (e *Engine) settleKNNQueries(m *mergeState, now float64) {
	dirty := make([]core.QueryID, 0, len(m.knnDirty))
	for qid := range m.knnDirty {
		dirty = append(dirty, qid)
	}
	// Map order needs no sort: a settle sub-steps only the tiles it
	// replicates its own query into, which then register that replica
	// alone, and its candidates come from its own replicas. So each
	// query's diff and work are the same in any order; the stream is
	// sorted canonically, and the ledger counts are sums.
	for _, qid := range dirty {
		qi, ok := e.qrys[qid]
		if !ok || qi.kind != core.KNN {
			continue // removed or re-registered as another kind
		}
		e.settleKNN(m, qi, now)
	}
}

// settleKNN expands the query's coverage to a fixpoint, computes the
// exact global top-k from the merged candidates, and emits the diff
// against the previously reported global answer.
func (e *Engine) settleKNN(m *mergeState, qi *queryInfo, now float64) {
	var cands []cand
	if qi.k > 0 {
		for {
			cands = e.rankedCandidates(qi)
			starved := len(cands) < qi.k
			var rk float64
			if !starved {
				rk = cands[qi.k-1].dist
			}
			var grow []int
			for t, r := range e.rects {
				if covHas(qi.coverage, t) {
					continue
				}
				if starved || r.MinDist(qi.focal) <= rk {
					grow = append(grow, t)
				}
			}
			if len(grow) == 0 {
				break
			}
			def := core.QueryUpdate{
				ID: qi.id, Kind: core.KNN,
				Focal: qi.focal, K: qi.k, T: qi.t,
			}
			for _, t := range grow {
				e.tiles[t].ReportQuery(def)
			}
			qi.coverage = unionSorted(make([]int, 0, len(qi.coverage)+len(grow)), qi.coverage, grow)
			// Sub-step only the newly covered tiles, at the step's own
			// timestamp: their engines register the replica and report
			// its local top-k, which absorb folds into the candidates.
			e.m.knnSubsteps.Add(uint64(len(grow)))
			e.absorb(m, e.stepTiles(grow, now))
		}
	}

	top := m.memBuf[:0]
	for _, c := range cands {
		if len(top) == qi.k {
			break
		}
		top = append(top, c.id)
	}
	qi.radius = 0
	if len(top) > 0 {
		qi.radius = cands[len(top)-1].dist
	}
	slices.Sort(top)
	m.out = core.AppendDiff(m.out, qi.id, qi.answer, top)
	qi.answer = append(qi.answer[:0], top...)
	m.memBuf = top[:0]
}
