package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cqp/internal/geo"
	"cqp/internal/grid"
	"cqp/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Bounds is the monitored space. Required (the zero Rect is rejected).
	Bounds geo.Rect

	// Region, when non-zero, restricts the engine's spatial index to a
	// sub-rectangle of Bounds: the grid spans Region instead of the whole
	// monitored space. Geometry outside Region is not rejected — it is
	// clamped into the region's edge cells, exactly as out-of-Bounds
	// geometry is clamped by a full-space engine — so answers depend only
	// on the raw reported geometry, never on the index bounds. This is
	// what lets internal/shard build one engine per tile over just that
	// tile's rectangle (plus a halo margin) while keeping the merged
	// stream identical to a single full-space engine's: an engine's answer
	// over any object population is invariant under the choice of Region.
	// Defaults to Bounds; must be a non-empty sub-rectangle of Bounds.
	Region geo.Rect

	// GridN is the per-axis cell count of the shared grid. Defaults to 64.
	GridN int

	// MaxSpeed, when positive, bounds the speed of predictive motion: a
	// Predictive object report whose velocity magnitude — or any waypoint
	// leg of its trajectory — exceeds MaxSpeed is rejected wholesale,
	// keeping the prior state, exactly like a malformed trajectory. The
	// bound is what allows a sharded router to route a predictive query
	// only to the tiles its region could be reached from within the
	// horizon (region expanded by MaxSpeed × PredictiveHorizon) instead
	// of replicating it everywhere. 0 (the default) means unlimited.
	MaxSpeed float64

	// PredictiveHorizon is how far (in time units) ahead of its report a
	// predictive object's trajectory is registered in the grid. Predictive
	// queries whose window ends more than a horizon after the reporting
	// time of an object may miss that object, so configure the horizon to
	// cover the longest window in use. Defaults to 100.
	PredictiveHorizon float64

	// Metrics, when non-nil, registers the engine's observability
	// instruments (step counters, update counters, latency histograms,
	// scratch high-water marks) in the given registry. Instruments are
	// resolved once here at construction — the evaluation path performs
	// only atomic updates and allocates nothing for them. Metrics never
	// influence evaluation: the update stream is bit-identical with
	// metrics on or off.
	Metrics *obs.Registry

	// Clock drives the step-latency histogram. The engine itself never
	// reads the wall clock (the determinism analyzer forbids it): the
	// server layer injects obs.WallClock, tests inject fakes, and a nil
	// Clock disables latency timing while every other metric still
	// functions.
	Clock obs.Clock
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Bounds.Empty() {
		return out, fmt.Errorf("core: Options.Bounds must be a non-empty rectangle, got %v", out.Bounds)
	}
	if out.Region == (geo.Rect{}) {
		out.Region = out.Bounds
	}
	if out.Region.Empty() {
		return out, fmt.Errorf("core: Options.Region must be a non-empty rectangle, got %v", out.Region)
	}
	if !out.Bounds.ContainsRect(out.Region) {
		return out, fmt.Errorf("core: Options.Region %v must lie inside Bounds %v", out.Region, out.Bounds)
	}
	if out.MaxSpeed < 0 {
		return out, fmt.Errorf("core: Options.MaxSpeed must be non-negative, got %v", out.MaxSpeed)
	}
	if out.GridN == 0 {
		out.GridN = 64
	}
	if out.GridN < 1 {
		return out, fmt.Errorf("core: Options.GridN must be positive, got %d", out.GridN)
	}
	if out.PredictiveHorizon == 0 {
		out.PredictiveHorizon = 100
	}
	if out.PredictiveHorizon < 0 {
		return out, fmt.Errorf("core: Options.PredictiveHorizon must be positive, got %v", out.PredictiveHorizon)
	}
	return out, nil
}

// Normalized returns the options with every default applied, validated
// exactly as NewEngine validates them. The shard router, which
// computes predictive routing bounds from PredictiveHorizon, normalizes
// once so its view never drifts from the engines'.
func (o Options) Normalized() (Options, error) { return o.withDefaults() }

// AcceptObject reports whether an object report that is not a removal
// is accepted: no location, velocity, time or waypoint holds a NaN (a
// NaN has no grid cell, so it would break the index), its trajectory,
// if any, is well formed, and a Predictive report's velocity and
// waypoint legs are no faster than maxSpeed (a non-positive maxSpeed
// caps nothing). ±Inf coordinates are accepted: the grid clamps them
// into an edge cell. A rejected report leaves the object's prior state
// in place. This is the one acceptance rule: the engine applies it, and
// the shard router applies it before routing, so a report a tile engine
// rejects never moves the router's ownership table either.
func AcceptObject(u *ObjectUpdate, maxSpeed float64) bool {
	// A value holding a NaN is the one value unequal to itself.
	if u.Loc != u.Loc || u.Vel != u.Vel || u.T != u.T {
		return false
	}
	for _, wp := range u.Waypoints {
		if wp != wp {
			return false
		}
	}
	if len(u.Waypoints) > 0 && !(geo.Trajectory{Start: u.Loc, T0: u.T, Waypoints: u.Waypoints}).Valid() {
		return false
	}
	if maxSpeed <= 0 || u.Kind != Predictive {
		return true
	}
	if len(u.Waypoints) == 0 {
		return !(u.Vel.Len() > maxSpeed)
	}
	prev := geo.TimedPoint{P: u.Loc, T: u.T}
	for _, wp := range u.Waypoints {
		if dt := wp.T - prev.T; dt > 0 && wp.P.Dist(prev.P) > maxSpeed*dt {
			return false
		}
		prev = wp
	}
	return true
}

// objectState is the engine's record of one object: the paper's object
// entry (OID, loc, t, QList).
type objectState struct {
	id ObjectID
	// h is the object's dense handle: its slot in Engine.objsByH and the
	// payload of its grid keys, so every hot-path lookup from a grid
	// visit is a direct array index instead of a map probe.
	h         int32
	kind      ObjectKind
	loc       geo.Point
	vel       geo.Vector
	waypoints []geo.TimedPoint // trajectory representation, when reported
	t         float64

	gridLoc geo.Point // where the grid indexes the point entry, once indexed
	indexed bool
	removed bool   // the object's last report of step removed it
	step    uint64 // the Step in which the object last joined the moved list

	// swept is the grid-registered trajectory bounding box of a predictive
	// object; the zero Rect when not registered.
	swept      geo.Rect
	sweptValid bool

	// queries is the QList: every query whose answer currently contains
	// this object. A packed slice (membership sets are small — see
	// answerSet) maintained exclusively by setMember, which keeps it an
	// exact mirror of the answer sets.
	queries []*queryState
}

// queryState is the engine's record of one query: the paper's query entry
// plus the incremental-evaluation bookkeeping.
type queryState struct {
	id QueryID
	// h is the query's dense handle (slot in Engine.qrysByH, payload of
	// its grid keys); see objectState.h.
	h    int32
	kind QueryKind
	t    float64

	region geo.Rect  // current grid-registered region
	focal  geo.Point // KNN focal point
	k      int       // KNN cardinality
	radius float64   // KNN current circle radius (kth distance)
	t1, t2 float64   // PredictiveRange window

	registered bool // region currently present in the grid

	// seen is the last Step whose batch reported the query, and dup
	// whether that batch reported it more than once (queryPhase).
	seen uint64
	dup  bool

	// answer is the OList: the latest answer, maintained incrementally,
	// keyed by object handle (members are always live, so handles cannot
	// dangle).
	answer answerSet
}

// Engine is the shared, incremental continuous query processor. Methods
// must not be called concurrently; wrap the engine (as internal/server
// does) to serialize access.
type Engine struct {
	opt  Options
	g    *grid.Grid
	now  float64
	objs map[ObjectID]*objectState
	qrys map[QueryID]*queryState

	// Dense handle tables: objsByH[os.h] == os for every live object
	// (nil in freed slots), and symmetrically for queries. Grid keys
	// carry handles, so the join's candidate probes index these arrays
	// directly. Freed handles are recycled LIFO — a deterministic
	// policy, so handle assignment (and with it grid-slab layout) is
	// identical across replicas fed the same report stream.
	objsByH []*objectState
	qrysByH []*queryState
	objFree []int32
	qryFree []int32

	// idByH mirrors objsByH with just the external ID: handle→ID
	// translation (answer reads, checksums, kNN tie ranks) is a flat
	// array load instead of a pointer chase through the object state.
	// Freed slots keep their stale ID — translation is only ever done
	// for live members, whose slots are current.
	idByH []ObjectID

	objBuf []ObjectUpdate
	qryBuf []QueryUpdate

	dirtyKNN map[QueryID]struct{}

	stats Stats
	m     *engineMetrics

	// Step scratch, reused across evaluations so a steady-state Step is
	// allocation-stable: every buffer below reaches its working size
	// within a few Steps and is then only resliced. None of this state
	// carries semantics between Steps — each buffer is reset (length
	// zero or cleared) before use.
	movedBuf []*objectState // phase-1 changed-object list, one entry per object
	live     []*objectState // phase 3's moved objects, read by its gather
	qsOf     []*queryState  // phase 2: per report, its query if gathered
	dirtyBuf []*queryState  // phase 4's dirty-kNN drain
	qidBuf   []*queryState  // removeObject's sorted QList drain
	hBuf     []int32        // answer-member snapshot for drop scans et al.
	knnDrop  []int32        // recomputeKNN's retracted member handles
	knnAdd   []int32        // recomputeKNN's admitted member handles
	prevEmit int            // previous Step's emission count: pre-size hint for out

	// Canonical-sort keys and permutation scratch (see sort.go).
	sortKeys []uint64
	sortWide []updSortKey
	sortTmp  []Update

	// The join's gather (join.go): the running phase gathers n items in
	// nChunks chunks, next being the first unclaimed, with js[0] on the
	// caller and js[w] on helper w, which wg joins. inline holds a range
	// report applied where it stands.
	js         []*joinScratch
	chunks     []*chunk
	inline     chunk
	gather     func(j *joinScratch, lo, hi int)
	n, nChunks int
	next       atomic.Int32
	wg         sync.WaitGroup

	// Pre-bound grid-visit callbacks for predictive query updates (a
	// fresh closure per moved query escapes to the heap). curQS/curOut
	// carry the query being applied.
	curQS        *queryState
	curOut       *[]Update
	predCellCB   func(int) bool
	predRegionCB func(uint64, geo.Rect) bool

	// knnRank breaks a kNN search's exact distance ties by ObjectID, so
	// the k nearest are one set (EvalFromScratch's). Phase-4 helpers call
	// it while the stepping goroutine applies, which never writes idByH.
	knnRank func(key uint64) uint64
}

// NewEngine constructs an engine over the given space.
func NewEngine(opt Options) (*Engine, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opt:      o,
		g:        grid.New(o.Region, o.GridN),
		objs:     make(map[ObjectID]*objectState),
		qrys:     make(map[QueryID]*queryState),
		dirtyKNN: make(map[QueryID]struct{}),
		m:        newEngineMetrics(o.Metrics, o.Clock),
	}
	e.js = []*joinScratch{e.newJoinScratch()}
	e.knnRank = func(k uint64) uint64 { return uint64(e.idByH[k>>1]) }
	e.predRegionCB = func(k uint64, _ geo.Rect) bool {
		if keyIsQuery(k) {
			return true
		}
		os := e.objsByH[k>>1]
		e.stats.CandidateChecks++
		if e.predictiveMatch(e.curQS, os) {
			e.setMember(e.curQS, os, true, e.curOut)
		}
		return true
	}
	e.predCellCB = func(ci int) bool {
		e.stats.RegionEvalCells++
		e.g.VisitRegionsInCell(ci, e.predRegionCB)
		return true
	}
	return e, nil
}

// MustNewEngine is NewEngine that panics on configuration errors, for use
// in examples and tests.
func MustNewEngine(opt Options) *Engine {
	e, err := NewEngine(opt)
	if err != nil {
		panic(err)
	}
	return e
}

// Grid key space: object and query handles share the grid's uint64 key
// space, disambiguated by the low bit. Keys carry dense handles rather
// than external IDs so a grid visit resolves its subject with one array
// index (objsByH / qrysByH) — the map probes this replaces were over
// half the join phase's CPU at the paper scale. Query keys additionally
// carry the query kind in bits 1–2, so the object-join gather can
// dispatch on kind and test the slab-stored rect before touching the
// (cold) query state at all; the handle sits at bits 3+.
func okeyH(h int32) uint64 { return uint64(uint32(h))<<1 | 0 }

func qkeyH(h int32, kind QueryKind) uint64 {
	return uint64(uint32(h))<<3 | uint64(kind)<<1 | 1
}

func keyIsQuery(k uint64) bool { return k&1 == 1 }

func keyKind(k uint64) QueryKind { return QueryKind(k >> 1 & 3) }

// allocObjHandle assigns os the next free dense handle.
func (e *Engine) allocObjHandle(os *objectState) {
	if n := len(e.objFree); n > 0 {
		os.h = e.objFree[n-1]
		e.objFree = e.objFree[:n-1]
		e.objsByH[os.h] = os
		e.idByH[os.h] = os.id
		return
	}
	os.h = int32(len(e.objsByH))
	e.objsByH = append(e.objsByH, os)
	e.idByH = append(e.idByH, os.id)
}

// allocQryHandle assigns qs the next free dense handle.
func (e *Engine) allocQryHandle(qs *queryState) {
	if n := len(e.qryFree); n > 0 {
		qs.h = e.qryFree[n-1]
		e.qryFree = e.qryFree[:n-1]
		e.qrysByH[qs.h] = qs
		return
	}
	qs.h = int32(len(e.qrysByH))
	e.qrysByH = append(e.qrysByH, qs)
}

// ReportObject buffers an object update for the next Step, mirroring the
// paper's server-side buffering of received updates for bulk processing.
func (e *Engine) ReportObject(u ObjectUpdate) {
	e.objBuf = append(e.objBuf, u)
}

// ReportQuery buffers a query registration, movement, or removal for the
// next Step.
func (e *Engine) ReportQuery(u QueryUpdate) {
	e.qryBuf = append(e.qryBuf, u)
}

// Pending returns the number of buffered, not yet processed reports.
func (e *Engine) Pending() int { return len(e.objBuf) + len(e.qryBuf) }

// Now returns the evaluation timestamp of the last Step.
func (e *Engine) Now() float64 { return e.now }

// NumObjects returns the number of registered objects.
func (e *Engine) NumObjects() int { return len(e.objs) }

// NumQueries returns the number of registered queries.
func (e *Engine) NumQueries() int { return len(e.qrys) }

// Stats returns a copy of the engine's work ledger.
func (e *Engine) Stats() Stats { return e.stats }

// Bounds returns the monitored space.
func (e *Engine) Bounds() geo.Rect { return e.opt.Bounds }

// Region returns the sub-rectangle of the monitored space this engine's
// spatial index spans (Bounds unless Options.Region narrowed it).
func (e *Engine) Region() geo.Rect { return e.opt.Region }

// Answer returns the current answer of query q in ascending ObjectID
// order, or nil and false if the query is unknown.
func (e *Engine) Answer(q QueryID) ([]ObjectID, bool) {
	qs, ok := e.qrys[q]
	if !ok {
		return nil, false
	}
	members := qs.answer.AppendTo(e.hBuf[:0])
	e.hBuf = members
	out := make([]ObjectID, 0, len(members))
	for _, h := range members {
		out = append(out, e.idByH[h])
	}
	slices.Sort(out)
	return out, true
}

// Step processes every buffered object and query report as one bulk
// spatial join at time now, returning the incremental updates to all
// affected query answers. The returned slice is freshly allocated and in
// canonical order (see SortUpdates): feeding the same report stream to
// two engines yields bit-identical update streams.
//
// This is the paper's periodic evaluation: the server buffers updates and
// evaluates them every Δt seconds.
func (e *Engine) Step(now float64) []Update {
	// Freshly allocated per the API contract, but pre-sized from the
	// previous Step's emission count: steady-state workloads emit
	// similar volumes step over step, so append rarely reallocates.
	return e.stepAppend(make([]Update, 0, e.prevEmit), now)
}

// StepAppend is Step writing into a caller-owned buffer: the step's
// updates are appended to dst (which may be nil) and the extended slice
// is returned, with only the appended region in canonical order.
// Callers that drain the updates every tick — the shard workers, the
// bench harness — reuse one buffer across Steps and make the evaluation
// path allocation-free end to end, where Step's contractually fresh
// slice would be the one unavoidable per-tick allocation left.
func (e *Engine) StepAppend(dst []Update, now float64) []Update {
	return e.stepAppend(dst, now)
}

// stepAppend is the shared Step body. It appends this step's updates to
// out, sorts the appended region, and records the step's metrics.
func (e *Engine) stepAppend(out []Update, now float64) []Update {
	base := len(out)
	begin := e.m.tracer.Begin()
	prev := e.stats

	e.now = now
	e.stats.Steps++

	// Phase 1: apply every object report to the object table in arrival
	// order, without touching the grid. Only an object's state at the
	// step boundary enters the join, so an object joins the moved list
	// on its first accepted report or removal of the step and never
	// again. A removal only marks the object; a later accepted report
	// clears the mark, which makes a removal and a re-add one move.
	moved := e.movedBuf[:0]
	for i := range e.objBuf {
		u := &e.objBuf[i]
		e.stats.ObjectReports++
		os, exists := e.objs[u.ID]
		if u.Remove && !exists || !u.Remove && !AcceptObject(u, e.opt.MaxSpeed) {
			continue // nothing to remove, or a rejected report: keep prior state
		}
		if !exists {
			os = &objectState{id: u.ID}
			e.allocObjHandle(os)
			e.objs[u.ID] = os
		}
		if os.step != e.stats.Steps {
			os.step = e.stats.Steps
			moved = append(moved, os)
		}
		// A removal's fields are overwritten by any later accepted
		// report, and a removed object's are never read.
		os.removed = u.Remove
		os.kind, os.loc, os.vel, os.waypoints, os.t = u.Kind, u.Loc, u.Vel, u.Waypoints, u.T
	}

	// Index pass: each object whose last report removed it is removed;
	// each other object is indexed once, at its last accepted state.
	live := moved[:0]
	for _, os := range moved {
		if os.removed {
			e.removeObject(os, &out)
			continue
		}
		if os.indexed {
			e.g.MoveObject(okeyH(os.h), os.gridLoc, os.loc)
		} else {
			e.g.InsertObject(okeyH(os.h), os.loc)
		}
		os.gridLoc, os.indexed = os.loc, true
		e.registerSwept(os)
		e.stats.ObjectsIndexed++
		live = append(live, os)
	}

	// Phases 2–4 are the query-update join: query re-registrations,
	// the moved-object spatial join, and exact dirty-kNN re-evaluation;
	// see join.go for why phase 3 gathers every moved object before
	// applying any finding.
	joinBegin := e.m.tracer.Begin()

	// Phase 2: apply query reports. Range queries are evaluated
	// incrementally over the region difference; kNN queries are marked for
	// exact recomputation; predictive queries are re-joined against
	// trajectory candidates.
	e.queryPhase(&out)

	// Phase 3: object-driven evaluation. For every distinct live changed
	// object, first re-check its existing memberships against the
	// (possibly moved) queries, then probe the grid cell at its new
	// position for candidate queries it newly satisfies.
	e.objectJoinPhase(live, &out)

	// Phase 4: recompute the answer of every dirty kNN query exactly and
	// emit the membership diff, in query order so the grid's region
	// maintenance and the recompute stats are replay-stable.
	e.knnPhase(&out)

	e.m.tracer.End(e.m.joinLatency, joinBegin)

	e.objBuf = e.objBuf[:0]
	e.qryBuf = e.qryBuf[:0]
	e.movedBuf = moved
	emitted := len(out) - base
	e.prevEmit = emitted
	e.canonicalize(out[base:])

	// Metrics epilogue: pure atomic adds against pre-resolved
	// instruments (detached ones when no registry was configured), so
	// this block allocates nothing and never branches on "metrics on".
	// The work counters publish the step's ledger delta.
	m := e.m
	delta := e.stats.Since(prev)
	for i, p := range delta.Counters() {
		m.ledger[i].Add(*p)
	}
	m.movedHighWater.SetMax(int64(cap(e.movedBuf)))
	m.lastEmitted.Set(int64(emitted))
	m.objects.Set(int64(len(e.objs)))
	m.qrySet.Set(int64(len(e.qrys)))
	m.stepUpdates.Observe(int64(emitted))
	m.tracer.End(m.stepLatency, begin)
	return out
}

// setMember is the single authority over answer membership. Every
// evaluation path funnels through it, which both keeps the QList/OList
// views consistent and deduplicates updates when several phases discover
// the same membership change.
func (e *Engine) setMember(qs *queryState, os *objectState, in bool, out *[]Update) {
	if in {
		if !qs.answer.Add(os.h) {
			return
		}
		if len(os.queries) == cap(os.queries) {
			// Same growth policy as answerSet.Add: jump straight to a
			// working capacity so QLists stop allocating within the
			// steady-state warmup instead of doubling from 1.
			grown := make([]*queryState, len(os.queries), max(answerGrow, 2*cap(os.queries)))
			copy(grown, os.queries)
			os.queries = grown
		}
		os.queries = append(os.queries, qs)
		e.stats.PositiveUpdates++
	} else {
		if !qs.answer.Remove(os.h) {
			return
		}
		ql := os.queries
		for i, q := range ql {
			if q == qs {
				last := len(ql) - 1
				ql[i] = ql[last]
				ql[last] = nil
				os.queries = ql[:last]
				break
			}
		}
		e.stats.NegativeUpdates++
	}
	*out = append(*out, Update{Query: qs.id, Object: os.id, Positive: in})
}

// setMemberNew admits an object known to be absent from qs's answer,
// skipping the membership probe setMember pays. Callers must hold a
// structural guarantee of absence; both current callers are kNN adds,
// which are pre-filtered against the answer before being gathered.
// Range region-difference candidates do NOT qualify (an object that
// moved into A_new − A_old in the same step may already be a member)
// and go through setMember. Must never be called when a duplicate is
// possible — the QList would double-link and emit a duplicate positive
// update.
func (e *Engine) setMemberNew(qs *queryState, os *objectState, out *[]Update) {
	qs.answer.addNoCheck(os.h)
	if len(os.queries) == cap(os.queries) {
		grown := make([]*queryState, len(os.queries), max(answerGrow, 2*cap(os.queries)))
		copy(grown, os.queries)
		os.queries = grown
	}
	os.queries = append(os.queries, qs)
	e.stats.PositiveUpdates++
	*out = append(*out, Update{Query: qs.id, Object: os.id, Positive: true})
}

// removeObject deregisters an object, emitting negative updates for every
// query whose answer it occupied.
func (e *Engine) removeObject(os *objectState, out *[]Update) {
	// Retract memberships in ascending QueryID order (collected first:
	// setMember swap-removes from the QList being walked).
	qss := append(e.qidBuf[:0], os.queries...)
	slices.SortFunc(qss, func(a, b *queryState) int {
		if a.id < b.id {
			return -1
		}
		if a.id > b.id {
			return 1
		}
		return 0
	})
	e.qidBuf = qss[:0]
	for _, qs := range qss {
		if qs.kind == KNN {
			// A departed member must be replaced by the next nearest.
			e.dirtyKNN[qs.id] = struct{}{}
		}
		e.setMember(qs, os, false, out)
	}
	if os.indexed {
		e.g.RemoveObject(okeyH(os.h), os.gridLoc)
	}
	if os.sweptValid {
		e.g.RemoveRegion(okeyH(os.h), os.swept)
	}
	delete(e.objs, os.id)
	e.objsByH[os.h] = nil
	e.objFree = append(e.objFree, os.h)
}

// removeQuery deregisters a query. No updates are emitted: the subscriber
// is gone.
func (e *Engine) removeQuery(id QueryID) {
	qs, ok := e.qrys[id]
	if !ok {
		return
	}
	members := qs.answer.AppendTo(e.hBuf[:0])
	e.hBuf = members
	for _, h := range members {
		e.detachQuery(e.objsByH[h], qs)
	}
	if qs.registered {
		e.g.RemoveRegion(qkeyH(qs.h, qs.kind), qs.region)
	}
	delete(e.qrys, id)
	delete(e.dirtyKNN, id)
	e.qrysByH[qs.h] = nil
	e.qryFree = append(e.qryFree, qs.h)
}

// detachQuery drops qs from an object's QList without touching qs's own
// answer (the caller is discarding it wholesale).
func (e *Engine) detachQuery(os *objectState, qs *queryState) {
	ql := os.queries
	for i, q := range ql {
		if q == qs {
			last := len(ql) - 1
			ql[i] = ql[last]
			ql[last] = nil
			os.queries = ql[:last]
			return
		}
	}
}

// newQuery registers a fresh query state under a newly assigned handle.
func (e *Engine) newQuery(id QueryID, kind QueryKind) *queryState {
	qs := &queryState{id: id, kind: kind}
	e.allocQryHandle(qs)
	e.qrys[id] = qs
	return qs
}

// registerSwept (re)registers the trajectory bounding box of a predictive
// object over the configured horizon.
func (e *Engine) registerSwept(os *objectState) {
	if os.sweptValid {
		e.g.RemoveRegion(okeyH(os.h), os.swept)
		os.sweptValid = false
	}
	if os.kind != Predictive {
		return
	}
	horizon := os.t + e.opt.PredictiveHorizon
	if len(os.waypoints) > 0 {
		tr := geo.Trajectory{Start: os.loc, T0: os.t, Waypoints: os.waypoints}
		os.swept = tr.BBoxDuring(os.t, horizon)
	} else {
		m := geo.Motion{Start: os.loc, Vel: os.vel, T0: os.t}
		os.swept = m.SweptBBox(os.t, horizon)
	}
	os.sweptValid = true
	e.g.InsertRegion(okeyH(os.h), os.swept)
}

// applyQueryUpdate registers a new query or applies a movement report to
// an existing one. Updates with an unknown kind are rejected up front,
// before any state is touched: an invalid report must not re-register an
// existing query or overwrite its timestamp.
func (e *Engine) applyQueryUpdate(u QueryUpdate, out *[]Update) {
	if !u.Kind.Valid() {
		return
	}
	qs, exists := e.qrys[u.ID]
	if exists && qs.kind != u.Kind {
		// A query changing kind is a re-registration: tear down the old
		// query silently and start fresh.
		e.removeQuery(u.ID)
		exists = false
	}
	if !exists {
		qs = e.newQuery(u.ID, u.Kind)
	}
	qs.t = u.T
	switch u.Kind {
	case Range:
		e.applyRangeUpdate(qs, u.Region, out)
	case KNN:
		qs.focal = u.Focal
		qs.k = u.K
		e.dirtyKNN[qs.id] = struct{}{}
	case PredictiveRange:
		e.applyPredictiveUpdate(qs, u.Region, u.T1, u.T2, out)
	}
}
