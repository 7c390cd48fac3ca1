// Package core implements the paper's primary contribution: a scalable,
// incremental processor for continuous spatio-temporal queries (the
// framework later realized as SINA).
//
// Objects and queries are stored together in one shared uniform grid
// (package grid); evaluating all outstanding continuous queries reduces to
// a spatial join between the set of changed objects and the set of changed
// queries. The engine's output is a stream of *incremental* updates:
// positive updates (Q, +A) add object A to the previously reported answer
// of query Q, negative updates (Q, −A) remove it. Clients reconstruct the
// full answer by replaying the stream; the engine guarantees that
// replaying its output against the previous answer always yields exactly
// the current answer.
//
// Supported query classes (each may be stationary or moving, matching the
// paper's generality claim):
//
//   - Range: report objects inside a rectangular region.
//   - KNN: report the k objects nearest a focal point; represented in the
//     grid as the smallest focal-centered circle enclosing the current k
//     answer objects, exactly as in the paper.
//   - PredictiveRange: report objects whose predicted trajectory
//     (velocity-vector representation) intersects a region during a future
//     time window.
//
// Objects are stationary (report once), moving (report sampled
// locations), or predictive (report location + velocity vector). The
// engine is intentionally not safe for concurrent use: the paper's server
// buffers updates and evaluates them in bulk; the network layer
// (internal/server) provides the serialization.
package core

import (
	"cmp"
	"fmt"
	"slices"

	"cqp/internal/geo"
)

// ObjectID identifies a moving, stationary, or predictive object.
type ObjectID uint64

// QueryID identifies a registered continuous query.
type QueryID uint64

// ObjectKind classifies an object by its movement representation.
type ObjectKind uint8

const (
	// Stationary objects never move (gas stations, hospitals, ...).
	Stationary ObjectKind = iota
	// Moving objects report sampled current locations.
	Moving
	// Predictive objects report a location plus a velocity vector from
	// which future locations are predicted.
	Predictive
)

// String implements fmt.Stringer.
func (k ObjectKind) String() string {
	switch k {
	case Stationary:
		return "stationary"
	case Moving:
		return "moving"
	case Predictive:
		return "predictive"
	default:
		return fmt.Sprintf("ObjectKind(%d)", uint8(k))
	}
}

// QueryKind classifies a continuous query.
type QueryKind uint8

const (
	// Range is a continuous rectangular range query.
	Range QueryKind = iota
	// KNN is a continuous k-nearest-neighbor query.
	KNN
	// PredictiveRange is a range query over a future time window,
	// evaluated against predictive objects' trajectories.
	PredictiveRange
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case Range:
		return "range"
	case KNN:
		return "knn"
	case PredictiveRange:
		return "predictive-range"
	default:
		return fmt.Sprintf("QueryKind(%d)", uint8(k))
	}
}

// Valid reports whether k is a known query kind. Every processor
// ignores a registration or movement report of any other kind.
func (k QueryKind) Valid() bool { return k <= PredictiveRange }

// Update is one element of the incremental answer stream: a positive
// update adds Object to Query's answer, a negative update removes it.
type Update struct {
	Query    QueryID
	Object   ObjectID
	Positive bool
}

// SortUpdates puts an update stream into the engines' canonical
// emission order: ascending by (Query, Object), stably. Stability
// matters when the same pair appears more than once in a step (an
// object leaving and re-entering an answer): the −/+ sequence keeps its
// evaluation order, so replaying the sorted stream still reproduces the
// current answer exactly.
//
// Both engines canonicalize their Step output with this before
// returning, which is what makes the update stream bit-reproducible
// across runs despite Go's randomized map iteration and goroutine
// scheduling in the parallel gather.
func SortUpdates(out []Update) {
	slices.SortStableFunc(out, func(a, b Update) int {
		if c := cmp.Compare(a.Query, b.Query); c != 0 {
			return c
		}
		return cmp.Compare(a.Object, b.Object)
	})
}

// String renders the update in the paper's (Q, ±A) notation.
func (u Update) String() string {
	sign := "-"
	if u.Positive {
		sign = "+"
	}
	return fmt.Sprintf("(Q%d, %sO%d)", u.Query, sign, u.Object)
}

// ObjectUpdate is a buffered report from an object: a fresh location
// sample (and, for predictive objects, a movement prediction), or a
// removal.
//
// Predictive objects choose between the two movement representations the
// paper supports: a velocity vector (Vel), or a full trajectory of timed
// waypoints (Waypoints) for route-planned objects. When Waypoints is
// non-empty it takes precedence over Vel.
type ObjectUpdate struct {
	ID   ObjectID
	Kind ObjectKind
	Loc  geo.Point
	Vel  geo.Vector // velocity representation (Kind == Predictive)
	// Waypoints is the trajectory representation: the object travels
	// linearly from Loc at time T through each waypoint at its time, then
	// holds at the last one. Times must be strictly increasing and after
	// T; invalid trajectories are rejected at Step time (the object keeps
	// its previous state).
	Waypoints []geo.TimedPoint
	T         float64 // timestamp of the report
	// Remove deregisters the object; remaining fields other than ID are
	// ignored.
	Remove bool
}

// QueryUpdate is a buffered report from a query: registration, a moved
// region/focal point, a changed predictive window, or removal.
type QueryUpdate struct {
	ID   QueryID
	Kind QueryKind

	// Region is the rectangular region of Range and PredictiveRange
	// queries. Ignored for KNN.
	Region geo.Rect

	// Focal and K parameterize KNN queries.
	Focal geo.Point
	K     int

	// T1, T2 bound the future time window of PredictiveRange queries
	// (absolute times).
	T1, T2 float64

	T float64 // timestamp of the report

	// Remove deregisters the query; remaining fields other than ID are
	// ignored.
	Remove bool
}

// Snapshot is the full answer of one query at a point in time, used by the
// recovery path and by tests.
type Snapshot struct {
	Query   QueryID
	Objects []ObjectID
}

// Stats is the engine's work ledger: what each phase of Step did since
// construction, counted where the work happens. All counters are
// monotonically increasing. The engine.* metrics publish its per-step
// delta and the shard router sums tile ledgers with AddWork, so a
// counter added here needs no edit in any other layer.
type Stats struct {
	Steps           uint64 // Step invocations
	ObjectReports   uint64 // phase 1: object updates applied
	ObjectsIndexed  uint64 // phase 1: live objects indexed and joined, once each per step
	QueryReports    uint64 // phase 2: net query reports applied, one per query per step
	RegionEvalCells uint64 // phase 2: cells evaluated, only A_new − A_old for a moved range
	CandidateChecks uint64 // phases 2–3: object↔query predicate evaluations
	JoinFindings    uint64 // phase 3: membership proposals and kNN dirty marks gathered
	KNNRecomputes   uint64 // phase 4: exact kNN re-searches performed
	PositiveUpdates uint64 // (Q, +A) tuples emitted
	NegativeUpdates uint64 // (Q, −A) tuples emitted
}

const numCounters = 10 // Stats fields

// Counters returns a pointer to every ledger counter in one fixed order:
// the order the engine.* metrics are bound in.
func (s *Stats) Counters() [numCounters]*uint64 {
	return [...]*uint64{&s.Steps, &s.ObjectReports, &s.ObjectsIndexed,
		&s.QueryReports, &s.RegionEvalCells, &s.CandidateChecks,
		&s.JoinFindings, &s.KNNRecomputes,
		&s.PositiveUpdates, &s.NegativeUpdates}
}

// Add adds every counter of d to s.
func (s *Stats) Add(d Stats) {
	dst, src := s.Counters(), d.Counters()
	for i, p := range dst {
		*p += *src[i]
	}
}

// Since returns the ledger delta from an earlier reading prev of the
// same ledger to s.
func (s Stats) Since(prev Stats) Stats {
	cur, old := s.Counters(), prev.Counters()
	for i, p := range cur {
		*p -= *old[i]
	}
	return s
}

// AddWork adds w's evaluation work to s: every counter except the step,
// report and update counts, which a router that splits one stream over
// several engines keeps for itself.
func (s *Stats) AddWork(w Stats) {
	w.Steps, w.ObjectReports, w.QueryReports = 0, 0, 0
	w.PositiveUpdates, w.NegativeUpdates = 0, 0
	s.Add(w)
}
