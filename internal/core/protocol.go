package core

import "slices"

// Protocol is the paper's out-of-sync client protocol (§3.3) layered
// over any Processor, and its only implementation. Per query it keeps
// the committed answer — the last answer the client provably received —
// beside the processor's current one; a reconnecting client receives
// the committed→current diff (Recover) instead of the whole answer.
//
// Reports pass straight through to the inner processor. Protocol also
// records them, and Step and StepAppend apply the implicit commit of
// moving queries before the inner step runs, once per query per batch:
//
//   - a removal forgets the query's committed answer;
//   - a report with an unknown kind is ignored, as every processor
//     ignores it;
//   - a first registration or a kind change commits the empty answer;
//   - any other report commits the answer as of the last completed step,
//     minus the objects that have a removal report in this batch.
//
// The rule reads nothing but Answer, so every Processor configuration
// commits the same answers. Every report must go through the Protocol,
// or its query table drifts from the processor's. Like the processors,
// a Protocol is not safe for concurrent use.
type Protocol struct {
	Processor

	committed map[QueryID]*committedAnswer

	// The current batch as far as the commit rule reads it, reset by
	// every step: the query reports, the removed objects, and the
	// queries the rule has already applied to.
	qryBuf  []QueryUpdate
	removed []ObjectID
	touched map[QueryID]struct{}
}

// committedAnswer is one registered query's protocol state.
type committedAnswer struct {
	kind QueryKind
	ids  []ObjectID // ascending
}

var _ Processor = (*Protocol)(nil)

// NewProtocol wraps p, which must not have seen any report yet.
func NewProtocol(p Processor) *Protocol {
	return &Protocol{
		Processor: p,
		committed: make(map[QueryID]*committedAnswer),
		touched:   make(map[QueryID]struct{}),
	}
}

// ReportObject buffers an object update in the inner processor.
func (p *Protocol) ReportObject(u ObjectUpdate) {
	if u.Remove {
		p.removed = append(p.removed, u.ID)
	}
	p.Processor.ReportObject(u)
}

// ReportQuery buffers a query report in the inner processor.
func (p *Protocol) ReportQuery(u QueryUpdate) {
	p.qryBuf = append(p.qryBuf, u)
	p.Processor.ReportQuery(u)
}

// Step applies the batch's implicit commits, then steps the inner
// processor.
func (p *Protocol) Step(now float64) []Update {
	p.autoCommit()
	return p.Processor.Step(now)
}

// StepAppend is Step into a caller-owned buffer.
func (p *Protocol) StepAppend(dst []Update, now float64) []Update {
	p.autoCommit()
	return p.Processor.StepAppend(dst, now)
}

// autoCommit applies the commit rule to the buffered query reports in
// arrival order and resets the batch.
func (p *Protocol) autoCommit() {
	if len(p.qryBuf) > 0 {
		slices.Sort(p.removed)
		for _, u := range p.qryBuf {
			switch {
			case u.Remove:
				delete(p.committed, u.ID)
			case u.Kind == Range || u.Kind == KNN || u.Kind == PredictiveRange:
				p.commitReport(u)
			}
		}
		clear(p.touched)
	}
	p.qryBuf = p.qryBuf[:0]
	p.removed = p.removed[:0]
}

// commitReport applies the commit rule to one registration or movement
// report of a known kind.
func (p *Protocol) commitReport(u QueryUpdate) {
	c, ok := p.committed[u.ID]
	_, seen := p.touched[u.ID]
	switch {
	case !ok:
		p.committed[u.ID] = &committedAnswer{kind: u.Kind}
	case c.kind != u.Kind:
		c.kind, c.ids = u.Kind, c.ids[:0]
	case !seen:
		// The processor has not stepped this batch yet, so Answer is the
		// answer as of the last completed step. A later report of the
		// same query in this batch would commit it again unchanged.
		ids, _ := p.Processor.Answer(u.ID)
		c.ids = slices.DeleteFunc(ids, func(o ObjectID) bool {
			_, found := slices.BinarySearch(p.removed, o)
			return found
		})
	}
	p.touched[u.ID] = struct{}{}
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
