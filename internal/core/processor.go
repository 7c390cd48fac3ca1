package core

// Processor is the evaluation contract shared by every continuous query
// processor in the repository: the single-space Engine and the spatially
// sharded engine (internal/shard) both satisfy it, and the network layer
// (internal/server) is written against it exclusively.
//
// The contract mirrors the Engine's documented semantics:
//
//   - ReportObject and ReportQuery buffer reports in a Batch, which
//     nets each query's reports; Step applies the batch as one bulk
//     evaluation at the given time and returns the incremental (Q, ±A)
//     updates in canonical order (see SortUpdates). The stream is each
//     answer's net change over the step, one update per changed
//     (query, object) pair, except in a query the batch removed or
//     re-kinded: there the retractions of the old answer, which the
//     subscriber has dropped, may precede the new answer's updates. Fed
//     the same reports, every Processor yields equal answers and equal
//     streams, which the scenario differentials check; the streams may
//     differ only in those retractions, which a processor may stream or
//     drop.
//   - Replaying the update stream against a query's previously reported
//     answer always yields exactly its current Answer.
//
// The paper's out-of-sync client protocol is not part of the contract:
// Protocol implements it once, over any Processor.
//
// Like the Engine, a Processor is not safe for concurrent use: callers
// serialize access (internal/server holds its stepMu around every call).
type Processor interface {
	// ReportObject buffers an object update for the next Step.
	ReportObject(ObjectUpdate)
	// ReportQuery buffers a query registration, movement, or removal.
	ReportQuery(QueryUpdate)
	// Step processes every buffered report as one bulk evaluation at
	// time now and returns the incremental answer updates.
	Step(now float64) []Update
	// StepAppend is Step writing into a caller-owned buffer: the step's
	// updates are appended to dst (which may be nil) and the extended
	// slice is returned, with only the appended region in canonical
	// order. Per-tick callers reuse one buffer to keep evaluation
	// allocation-free.
	StepAppend(dst []Update, now float64) []Update
	// Answer returns the current answer of q in ascending ObjectID
	// order, in a slice the caller owns, or nil and false if q is
	// unknown.
	Answer(q QueryID) ([]ObjectID, bool)
	// AnswerChecksum returns the order-independent checksum of q's
	// current answer.
	AnswerChecksum(q QueryID) (uint64, bool)
	// Stats returns a copy of the processor's work ledger.
	Stats() Stats
	// NumObjects returns the number of registered objects.
	NumObjects() int
	// NumQueries returns the number of registered queries.
	NumQueries() int
}

var _ Processor = (*Engine)(nil)
