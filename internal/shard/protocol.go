package shard

import (
	"slices"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// The client-protocol surface of the sharded engine. The router is the
// single source of truth for answers and the commit/recover protocol:
// per-tile engines are replicas (core.Options.Replica) — a query
// replicated to three tiles has one global answer and one committed
// snapshot, both held here.

// Answer returns the current merged answer of q in ascending ObjectID
// order, or nil and false if q is unknown.
func (e *Engine) Answer(q core.QueryID) ([]core.ObjectID, bool) {
	qi, ok := e.qrys[q]
	if !ok {
		return nil, false
	}
	return append(make([]core.ObjectID, 0, len(qi.answer)), qi.answer...), true
}

// AnswerChecksum returns the order-independent checksum of q's current
// answer; ok is false when q is unknown.
func (e *Engine) AnswerChecksum(q core.QueryID) (uint64, bool) {
	qi, ok := e.qrys[q]
	if !ok {
		return 0, false
	}
	return core.ChecksumIDs(qi.answer), true
}

// commitNow snapshots the current merged answer as the committed
// answer, reusing the previous snapshot's backing array.
func (e *Engine) commitNow(qi *queryInfo) {
	qi.committed = append(qi.committed[:0], qi.answer...)
}

// Commit records that q's client provably received the stream so far.
// It reports whether q is registered.
func (e *Engine) Commit(q core.QueryID) bool {
	qi, ok := e.qrys[q]
	if !ok {
		return false
	}
	e.commitNow(qi)
	return true
}

// CommittedAnswer returns the last committed answer of q in ascending
// ObjectID order; ok is false when q is unknown.
func (e *Engine) CommittedAnswer(q core.QueryID) ([]core.ObjectID, bool) {
	qi, ok := e.qrys[q]
	if !ok {
		return nil, false
	}
	return slices.Clone(qi.committed), true
}

// CommittedChecksum returns the checksum of q's committed answer; ok is
// false when q is unknown.
func (e *Engine) CommittedChecksum(q core.QueryID) (uint64, bool) {
	qi, ok := e.qrys[q]
	if !ok {
		return 0, false
	}
	return core.ChecksumIDs(qi.committed), true
}

// SeedCommitted installs a committed answer for q (repository restore
// after a restart). It reports whether q is registered.
func (e *Engine) SeedCommitted(q core.QueryID, objs []core.ObjectID) bool {
	qi, ok := e.qrys[q]
	if !ok {
		return false
	}
	qi.committed = core.SortIDs(append(qi.committed[:0], objs...))
	return true
}

// Recover returns the updates an out-of-sync client needs — the diff
// between the committed and current merged answers, negatives first —
// and then commits, exactly as core.Engine.Recover does.
func (e *Engine) Recover(q core.QueryID) ([]core.Update, bool) {
	qi, ok := e.qrys[q]
	if !ok {
		return nil, false
	}
	out := core.AppendDiff(nil, q, qi.committed, qi.answer)
	e.commitNow(qi)
	return out, true
}

// Stats returns the router's activity counters. Step, report, and
// update counts are the router's own (they match the single-engine
// counts for the same workload); the work counters — kNN recomputes,
// candidate checks, region cells visited — are summed over the live
// tile engines plus the final tallies of tiles retired by
// repartitioning, exposing the actual evaluation work done across
// shards.
func (e *Engine) Stats() core.Stats {
	s := e.stats
	s.KNNRecomputes += e.retiredWork.KNNRecomputes
	s.CandidateChecks += e.retiredWork.CandidateChecks
	s.RegionEvalCells += e.retiredWork.RegionEvalCells
	for _, t := range e.tiles {
		if t == nil {
			continue
		}
		ws := t.WorkStats()
		s.KNNRecomputes += ws.KNNRecomputes
		s.CandidateChecks += ws.CandidateChecks
		s.RegionEvalCells += ws.RegionEvalCells
	}
	return s
}

// Now returns the evaluation timestamp of the last Step.
func (e *Engine) Now() float64 { return e.now }

// Bounds returns the monitored space.
func (e *Engine) Bounds() geo.Rect { return e.opt.Core.Bounds }

// NumObjects returns the number of registered objects across all tiles.
func (e *Engine) NumObjects() int { return len(e.objs) }

// NumQueries returns the number of registered queries.
func (e *Engine) NumQueries() int { return len(e.qrys) }
