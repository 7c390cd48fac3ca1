package core

import (
	"fmt"
	"slices"

	"cqp/internal/geo"
)

// EvalFromScratch computes the ground-truth answer of query q by brute
// force over every registered object, bypassing the grid and all
// incremental state. It exists for validation: property tests assert that
// the incrementally maintained answer always equals this oracle.
func (e *Engine) EvalFromScratch(q QueryID) ([]ObjectID, bool) {
	qs, ok := e.qrys[q]
	if !ok {
		return nil, false
	}
	var out []ObjectID
	switch qs.kind {
	case Range:
		for _, os := range e.objsByH {
			if os != nil && qs.region.Contains(os.loc) {
				out = append(out, os.id)
			}
		}
	case KNN:
		type cand struct {
			id ObjectID
			d  float64
		}
		cands := make([]cand, 0, len(e.objs))
		for _, os := range e.objsByH {
			if os != nil {
				cands = append(cands, cand{os.id, qs.focal.Dist(os.loc)})
			}
		}
		slices.SortFunc(cands, func(a, b cand) int {
			if a.d != b.d {
				if a.d < b.d {
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
		})
		n := qs.k
		if len(cands) < n {
			n = len(cands)
		}
		for _, c := range cands[:n] {
			out = append(out, c.id)
		}
	case PredictiveRange:
		for _, os := range e.objsByH {
			if os != nil && e.predictedIntersects(os, qs.region, qs.t1, qs.t2) {
				out = append(out, os.id)
			}
		}
	}
	slices.Sort(out)
	return out, true
}

// CheckConsistency verifies the engine's internal invariants, returning
// an error describing the first violation. Intended for tests; it is
// O(objects × queries) for the answer oracle comparison when deep is
// true, and structural-only otherwise.
//
// Invariants checked:
//   - QList/OList symmetry: o ∈ q.answer ⇔ q ∈ o.queries;
//   - every answer references live objects and vice versa;
//   - the grid indexes each live object exactly once, at its location;
//   - with deep: every answer equals the brute-force oracle, a kNN
//     answer included: its k objects are the first in (distance to the
//     focal point, ObjectID) order, so a tie has one answer.
func (e *Engine) CheckConsistency(deep bool) error {
	for qid, qs := range e.qrys {
		var members []int32
		members = qs.answer.AppendTo(members)
		for _, h := range members {
			if h < 0 || int(h) >= len(e.objsByH) || e.objsByH[h] == nil {
				return fmt.Errorf("query %d answer references dead object handle %d", qid, h)
			}
			os := e.objsByH[h]
			if cur, ok := e.objs[os.id]; !ok || cur != os {
				return fmt.Errorf("query %d answer references unknown object %d", qid, os.id)
			}
			if !slices.Contains(os.queries, qs) {
				return fmt.Errorf("object %d missing back-reference to query %d", os.id, qid)
			}
		}
	}
	for oid, os := range e.objs {
		if os.h < 0 || int(os.h) >= len(e.objsByH) || e.objsByH[os.h] != os {
			return fmt.Errorf("object %d handle %d does not round-trip through the handle table", oid, os.h)
		}
		for _, qs := range os.queries {
			if cur, ok := e.qrys[qs.id]; !ok || cur != qs {
				return fmt.Errorf("object %d references unknown query %d", oid, qs.id)
			}
			if !qs.answer.Has(os.h) {
				return fmt.Errorf("object %d claims membership in query %d but is not in its answer", oid, qs.id)
			}
		}
		n := 0
		e.g.VisitObjectsInCell(e.g.CellIndex(os.loc), func(k uint64, p geo.Point) bool {
			if k == okeyH(os.h) && p == os.loc {
				n++
			}
			return true
		})
		if n != 1 {
			return fmt.Errorf("object %d is indexed %d times at its location %v", oid, n, os.loc)
		}
	}
	if n := e.g.NumObjects(); n != len(e.objs) {
		return fmt.Errorf("grid indexes %d objects, engine holds %d", n, len(e.objs))
	}
	for qid, qs := range e.qrys {
		if qs.h < 0 || int(qs.h) >= len(e.qrysByH) || e.qrysByH[qs.h] != qs {
			return fmt.Errorf("query %d handle %d does not round-trip through the handle table", qid, qs.h)
		}
	}
	if !deep {
		return nil
	}
	qids := make([]QueryID, 0, len(e.qrys))
	for qid := range e.qrys {
		qids = append(qids, qid)
	}
	slices.Sort(qids)
	for _, qid := range qids {
		want, _ := e.EvalFromScratch(qid)
		got, _ := e.Answer(qid)
		if !equalIDs(got, want) {
			return fmt.Errorf("query %d (%v): answer %v, oracle %v", qid, e.qrys[qid].kind, got, want)
		}
	}
	return nil
}

func equalIDs(a, b []ObjectID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ApplyUpdates replays an update stream onto a client-side answer set,
// exactly as a subscriber would. It is exported so clients, tests, and
// examples share one replay semantic.
func ApplyUpdates(answer map[ObjectID]struct{}, updates []Update, q QueryID) {
	for _, u := range updates {
		if u.Query != q {
			continue
		}
		if u.Positive {
			answer[u.Object] = struct{}{}
		} else {
			delete(answer, u.Object)
		}
	}
}
