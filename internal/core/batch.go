package core

// Batch is one step's buffered reports, the unit a processor evaluates
// in bulk every Δt. Only each query's state at the step boundary enters
// the evaluation, so a Batch folds a query's reports as they arrive into
// one NetQuery, kept in first-arrival order; a report of an unknown kind
// is dropped, as no processor can apply it. Object reports stay in
// arrival order: phase 1 of a step nets them with its one stamp per
// object, without a map probe per report.
type Batch struct {
	objs    []ObjectUpdate
	queries []NetQuery
	slotOf  map[QueryID]int
}

// NetQuery is one query's net report in a Batch. Its reports apply as
// a removal if Removed is set, then Last unless Last is a removal.
type NetQuery struct {
	Last    QueryUpdate // the last report: a removal or of a known kind
	Removed bool        // a report removed the query or changed its kind
}

// ReportObject appends an object report.
func (b *Batch) ReportObject(u ObjectUpdate) { b.objs = append(b.objs, u) }

// ReportQuery folds a query report into the query's net report.
func (b *Batch) ReportQuery(u QueryUpdate) {
	if !u.Remove && !u.Kind.Valid() {
		return
	}
	if b.slotOf == nil {
		b.slotOf = make(map[QueryID]int)
	}
	i, seen := b.slotOf[u.ID]
	if !seen {
		i = len(b.queries)
		b.slotOf[u.ID] = i
		b.queries = append(b.queries, NetQuery{})
	}
	n := &b.queries[i]
	// After a removal the flag is already set, so the kind comparison
	// only ever sees two registration or movement reports.
	n.Removed = n.Removed || u.Remove || seen && n.Last.Kind != u.Kind
	n.Last = u
}

// Objects returns the object reports in arrival order.
func (b *Batch) Objects() []ObjectUpdate { return b.objs }

// Queries returns the net query reports in first-arrival order.
func (b *Batch) Queries() []NetQuery { return b.queries }

// Reset empties the batch, keeping its buffers.
func (b *Batch) Reset() {
	b.objs = b.objs[:0]
	b.queries = b.queries[:0]
	clear(b.slotOf)
}
