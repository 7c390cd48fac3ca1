package shard

import "cqp/internal/core"

// The read surface of the sharded engine. The router is the single
// source of truth for answers: a query replicated to three tiles has one
// global answer, held here. The client commit/recover protocol lives in
// core.Protocol, over this surface.

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

// Stats returns the router's work ledger. Step, report, and update
// counts are the router's own (they match the single-engine counts for
// the same workload); every work counter is the sum over the live tile
// engines plus the final ledgers of tiles retired by repartitioning,
// exposing the actual evaluation work done across shards.
func (e *Engine) Stats() core.Stats {
	s := e.stats
	s.AddWork(e.retiredWork)
	for _, t := range e.tiles {
		if t != nil {
			s.AddWork(t.WorkStats())
		}
	}
	return s
}

// NumObjects returns the number of registered objects across all tiles.
func (e *Engine) NumObjects() int { return len(e.objs) }

// NumQueries returns the number of registered queries.
func (e *Engine) NumQueries() int { return len(e.qrys) }
