package core

import "slices"

// Protocol is the paper's out-of-sync client protocol (§3.3) layered
// over any Processor, and its only implementation. Per query it keeps
// the committed answer — the last answer the client provably received —
// beside the processor's current one; a reconnecting client receives
// the committed→current diff (Recover) instead of the whole answer.
//
// Reports pass straight through to the inner processor, which nets them
// in its Batch. Each query report applies the implicit commit of moving
// queries as it passes:
//
//   - a removal forgets the query's committed answer;
//   - a first registration or a kind change commits the empty answer,
//     and so does any later report of that incarnation in the same
//     batch, since Answer still returns the old one until the step;
//   - any other report commits the answer as of the last completed step:
//     the answer its client held when it reported.
//
// A report of an unknown kind commits nothing, as every processor drops
// it. The rule reads nothing but Answer, so every Processor
// configuration commits the same answers. Every report must go through
// the Protocol, or its query table drifts from the processor's. Like
// the processors, a Protocol is not safe for concurrent use.
type Protocol struct {
	Processor

	committed map[QueryID]*committedAnswer
	batch     uint64 // the current batch: the number of steps taken
}

// committedAnswer is one registered query's protocol state.
type committedAnswer struct {
	kind  QueryKind
	ids   []ObjectID // ascending
	batch uint64     // the batch that registered this incarnation
}

var _ Processor = (*Protocol)(nil)

// NewProtocol wraps p, which must not have seen any report yet.
func NewProtocol(p Processor) *Protocol {
	return &Protocol{Processor: p, committed: make(map[QueryID]*committedAnswer)}
}

// ReportQuery applies a query report's implicit commit and forwards it.
func (p *Protocol) ReportQuery(u QueryUpdate) {
	c, ok := p.committed[u.ID]
	switch {
	case u.Remove:
		delete(p.committed, u.ID)
	case !u.Kind.Valid(): // the processor's Batch drops it
	case !ok:
		p.committed[u.ID] = &committedAnswer{kind: u.Kind, batch: p.batch}
	case c.kind != u.Kind:
		c.kind, c.ids, c.batch = u.Kind, c.ids[:0], p.batch
	case c.batch != p.batch:
		// The processor has not stepped this batch yet, so Answer is the
		// answer as of the last completed step.
		c.ids, _ = p.Processor.Answer(u.ID)
	}
	p.Processor.ReportQuery(u)
}

// Step closes the batch and steps the inner processor.
func (p *Protocol) Step(now float64) []Update {
	p.batch++
	return p.Processor.Step(now)
}

// StepAppend is Step into a caller-owned buffer.
func (p *Protocol) StepAppend(dst []Update, now float64) []Update {
	p.batch++
	return p.Processor.StepAppend(dst, now)
}

// Commit records that q's client provably received the stream so far:
// the current answer becomes the committed answer. Stationary queries
// commit explicitly (paper §3.3); moving queries commit implicitly with
// every report. Commit reports whether q is registered.
func (p *Protocol) Commit(q QueryID) bool {
	c, ok := p.committed[q]
	if ok {
		c.ids, _ = p.Processor.Answer(q)
	}
	return ok
}

// Recover returns the updates an out-of-sync client needs after a
// disconnection — the diff from the committed answer to the current one
// (see AppendDiff) — and then commits, since the client receives the
// current answer as part of reconnecting. A query that never committed
// recovers from the empty answer: the whole answer as positives. The
// second result reports whether q is registered.
func (p *Protocol) Recover(q QueryID) ([]Update, bool) {
	c, ok := p.committed[q]
	if !ok {
		return nil, false
	}
	ans, _ := p.Processor.Answer(q)
	out := AppendDiff(nil, q, c.ids, ans)
	c.ids = ans
	return out, true
}

// CommittedAnswer returns the last committed answer of q in ascending
// ObjectID order. The second result is false if q is unknown; a
// registered query that never committed returns an empty slice.
func (p *Protocol) CommittedAnswer(q QueryID) ([]ObjectID, bool) {
	c, ok := p.committed[q]
	if !ok {
		return nil, false
	}
	return append(make([]ObjectID, 0, len(c.ids)), c.ids...), true
}

// CommittedChecksum returns the checksum of q's committed answer (the
// empty set's, 0, before the first commit); ok is false when q is
// unknown.
func (p *Protocol) CommittedChecksum(q QueryID) (uint64, bool) {
	c, ok := p.committed[q]
	if !ok {
		return 0, false
	}
	return ChecksumIDs(c.ids), true
}

// SeedCommitted installs a committed answer for q, typically restored
// from the repository after a server restart, so that clients of
// long-lived queries recover incrementally across restarts. Unknown
// object IDs are permitted: they produce negative updates on the next
// Recover. It reports whether q is registered.
func (p *Protocol) SeedCommitted(q QueryID, seed []ObjectID) bool {
	c, ok := p.committed[q]
	if ok {
		c.ids = SortIDs(append(c.ids[:0], seed...))
	}
	return ok
}

// AppendDiff appends to out the updates that turn answer from into
// answer to, both ascending and duplicate-free (see SortIDs): negatives
// first (a client prunes before it grows), then positives, each in
// ascending ObjectID order. It is the recovery diff.
func AppendDiff(out []Update, q QueryID, from, to []ObjectID) []Update {
	j := 0
	for _, o := range from {
		for j < len(to) && to[j] < o {
			j++
		}
		if j == len(to) || to[j] != o {
			out = append(out, Update{Query: q, Object: o, Positive: false})
		}
	}
	i := 0
	for _, o := range to {
		for i < len(from) && from[i] < o {
			i++
		}
		if i == len(from) || from[i] != o {
			out = append(out, Update{Query: q, Object: o, Positive: true})
		}
	}
	return out
}

// SortIDs sorts ids in place and drops repeats, returning the
// ascending, duplicate-free set AppendDiff expects. SeedCommitted input
// is unconstrained, so a seed is normalized with it: a duplicate would
// double-emit on Recover and cancel out of the XOR checksum.
func SortIDs(ids []ObjectID) []ObjectID {
	slices.Sort(ids)
	return slices.Compact(ids)
}
