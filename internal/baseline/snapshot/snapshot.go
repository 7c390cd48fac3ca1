// Package snapshot implements the naive baseline the paper argues
// against: continuous queries abstracted into a series of snapshot
// queries, re-evaluated from scratch every Δt seconds, with the *complete*
// answer shipped to every client each time.
//
// The engine shares the core engine's grid index so that comparisons
// against the incremental engine isolate the evaluation strategy
// (re-evaluate + resend vs. incremental updates) rather than index
// quality.
package snapshot

import (
	"sort"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/grid"
)

// Engine is the snapshot-re-evaluation baseline. Like core.Engine it is
// single-threaded and buffer-driven; its Step returns complete answers
// for every registered query.
type Engine struct {
	opt  core.Options
	g    *grid.Grid
	now  float64
	objs map[core.ObjectID]*object
	qrys map[core.QueryID]*query

	objBuf []core.ObjectUpdate
	qryBuf []core.QueryUpdate
}

type object struct {
	kind core.ObjectKind
	loc  geo.Point
	vel  geo.Vector
	t    float64
}

type query struct {
	kind   core.QueryKind
	region geo.Rect
	focal  geo.Point
	k      int
	t1, t2 float64
}

// New constructs a snapshot engine over the given space. The options are
// interpreted exactly as by core.NewEngine.
func New(opt core.Options) (*Engine, error) {
	o, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	return &Engine{
		opt:  o,
		g:    grid.New(o.Bounds, o.GridN),
		objs: make(map[core.ObjectID]*object),
		qrys: make(map[core.QueryID]*query),
	}, nil
}

// ReportObject buffers an object update for the next Step.
func (e *Engine) ReportObject(u core.ObjectUpdate) { e.objBuf = append(e.objBuf, u) }

// ReportQuery buffers a query update for the next Step.
func (e *Engine) ReportQuery(u core.QueryUpdate) { e.qryBuf = append(e.qryBuf, u) }

// NumObjects returns the registered object count.
func (e *Engine) NumObjects() int { return len(e.objs) }

// NumQueries returns the registered query count.
func (e *Engine) NumQueries() int { return len(e.qrys) }

// Step applies all buffered reports and re-evaluates every registered
// query from scratch, returning the complete answer of each: the paper's
// "complete answer" whose size Figure 5 compares against the incremental
// stream. Answers are sorted by query ID, then object ID.
func (e *Engine) Step(now float64) []core.Snapshot {
	e.now = now
	for _, u := range e.objBuf {
		if u.Remove {
			if o, ok := e.objs[u.ID]; ok {
				e.g.RemoveObject(uint64(u.ID), o.loc)
				delete(e.objs, u.ID)
			}
			continue
		}
		if o, ok := e.objs[u.ID]; ok {
			e.g.MoveObject(uint64(u.ID), o.loc, u.Loc)
			o.kind, o.loc, o.vel, o.t = u.Kind, u.Loc, u.Vel, u.T
		} else {
			e.g.InsertObject(uint64(u.ID), u.Loc)
			e.objs[u.ID] = &object{kind: u.Kind, loc: u.Loc, vel: u.Vel, t: u.T}
		}
	}
	for _, u := range e.qryBuf {
		if u.Remove {
			delete(e.qrys, u.ID)
			continue
		}
		e.qrys[u.ID] = &query{
			kind: u.Kind, region: u.Region, focal: u.Focal, k: u.K, t1: u.T1, t2: u.T2,
		}
	}
	e.objBuf = e.objBuf[:0]
	e.qryBuf = e.qryBuf[:0]

	out := make([]core.Snapshot, 0, len(e.qrys))
	for qid, q := range e.qrys {
		out = append(out, core.Snapshot{Query: qid, Objects: e.evaluate(q)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}

// evaluate computes one query's full answer using the grid.
func (e *Engine) evaluate(q *query) []core.ObjectID {
	var out []core.ObjectID
	switch q.kind {
	case core.Range:
		e.g.VisitObjectsIn(q.region, func(id uint64, _ geo.Point) bool {
			out = append(out, core.ObjectID(id))
			return true
		})
	case core.KNN:
		for _, n := range e.g.KNearest(q.focal, q.k, nil) {
			out = append(out, core.ObjectID(n.ID))
		}
	case core.PredictiveRange:
		horizon := e.opt.PredictiveHorizon
		for oid, o := range e.objs {
			if o.kind != core.Predictive {
				continue
			}
			t1, t2 := q.t1, q.t2
			if t1 < o.t {
				t1 = o.t
			}
			if max := o.t + horizon; t2 > max {
				t2 = max
			}
			if t1 > t2 {
				continue
			}
			m := geo.Motion{Start: o.loc, Vel: o.vel, T0: o.t}
			if m.IntersectsRectDuring(q.region, t1, t2) {
				out = append(out, oid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
