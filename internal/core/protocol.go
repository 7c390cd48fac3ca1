package core

import "slices"

// Protocol is the paper's out-of-sync client protocol (§3.3) layered
// over any Processor, and its only implementation. Per query it keeps
// the committed answer — the last answer the client provably received —
// beside the processor's current one; a reconnecting client receives
// the committed→current diff (Recover) instead of the whole answer.
//
// Object reports pass straight through to the inner processor. Query
// reports are netted: Protocol folds a batch's reports of one query
// into one net report — the last report, preceded by a removal if any
// report in the batch removed the query or changed its kind — and
// forwards the net reports in first-arrival order at Step, so every
// Processor reads the same canonical batch. A report with an unknown
// kind is dropped, as every processor ignores it. Before the inner step
// runs, each net report applies the implicit commit of moving queries:
//
//   - a removal forgets the query's committed answer;
//   - a first registration or a kind change commits the empty answer;
//   - any other report commits the answer as of the last completed step:
//     the answer its client held when it reported.
//
// The rule reads nothing but Answer, so every Processor configuration
// commits the same answers. Every report must go through the Protocol,
// or its query table drifts from the processor's. Like the processors,
// a Protocol is not safe for concurrent use.
type Protocol struct {
	Processor

	committed map[QueryID]*committedAnswer

	// The current batch's net query reports in first-arrival order and
	// their index by query, reset by every step.
	slots  []netReport
	slotOf map[QueryID]int
}

// netReport is one query's net report in the current batch.
type netReport struct {
	last    QueryUpdate // the last report: a removal or of a known kind
	removed bool        // a report removed the query or changed its kind
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
		slotOf:    make(map[QueryID]int),
	}
}

// ReportQuery folds a query report into the query's net report for the
// next step.
func (p *Protocol) ReportQuery(u QueryUpdate) {
	if !u.Remove && !u.Kind.Valid() {
		return
	}
	i, seen := p.slotOf[u.ID]
	if !seen {
		i = len(p.slots)
		p.slotOf[u.ID] = i
		p.slots = append(p.slots, netReport{})
	}
	s := &p.slots[i]
	// After a removal the flag is already set, so the kind comparison
	// only ever sees two registration or movement reports.
	s.removed = s.removed || u.Remove || seen && s.last.Kind != u.Kind
	s.last = u
}

// Step forwards the net query reports, applying their implicit
// commits, then steps the inner processor.
func (p *Protocol) Step(now float64) []Update {
	p.flush()
	return p.Processor.Step(now)
}

// StepAppend is Step into a caller-owned buffer.
func (p *Protocol) StepAppend(dst []Update, now float64) []Update {
	p.flush()
	return p.Processor.StepAppend(dst, now)
}

// flush applies the commit rule to the net query reports in arrival
// order, forwards them to the inner processor, and resets the batch.
func (p *Protocol) flush() {
	for _, s := range p.slots {
		u := s.last
		if s.removed {
			delete(p.committed, u.ID)
			p.Processor.ReportQuery(QueryUpdate{ID: u.ID, Remove: true, T: u.T})
		}
		if !u.Remove {
			p.commitReport(u)
			p.Processor.ReportQuery(u)
		}
	}
	p.slots = p.slots[:0]
	clear(p.slotOf)
}

// commitReport applies the commit rule to one registration or movement
// report of a known kind.
func (p *Protocol) commitReport(u QueryUpdate) {
	c, ok := p.committed[u.ID]
	switch {
	case !ok:
		p.committed[u.ID] = &committedAnswer{kind: u.Kind}
	case c.kind != u.Kind:
		c.kind, c.ids = u.Kind, c.ids[:0]
	default:
		// The processor has not stepped this batch yet, so Answer is the
		// answer as of the last completed step.
		c.ids, _ = p.Processor.Answer(u.ID)
	}
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
