package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"cqp/internal/geo"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sortUpdates orders updates deterministically for comparison.
func sortUpdates(us []Update) []Update {
	sort.Slice(us, func(i, j int) bool {
		if us[i].Query != us[j].Query {
			return us[i].Query < us[j].Query
		}
		if us[i].Object != us[j].Object {
			return us[i].Object < us[j].Object
		}
		return !us[i].Positive
	})
	return us
}

func updatesEqual(a, b []Update) bool {
	a, b = sortUpdates(append([]Update(nil), a...)), sortUpdates(append([]Update(nil), b...))
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Options{}); err == nil {
		t.Error("empty bounds should fail")
	}
	if _, err := NewEngine(Options{Bounds: geo.R(0, 0, 1, 1), GridN: -1}); err == nil {
		t.Error("negative GridN should fail")
	}
	if _, err := NewEngine(Options{Bounds: geo.R(0, 0, 1, 1), PredictiveHorizon: -5}); err == nil {
		t.Error("negative horizon should fail")
	}
	if _, err := NewEngine(Options{Bounds: geo.R(0, 0, 1, 1)}); err != nil {
		t.Errorf("defaults should apply: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewEngine should panic on bad options")
		}
	}()
	MustNewEngine(Options{})
}

func TestRangeBasicLifecycle(t *testing.T) {
	e := newTestEngine(t)

	// Register a query over an empty space: no updates.
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(2, 2, 5, 5)})
	if got := e.Step(0); len(got) != 0 {
		t.Fatalf("updates over empty space: %v", got)
	}

	// An object appears inside: one positive update.
	e.ReportObject(ObjectUpdate{ID: 10, Kind: Moving, Loc: geo.Pt(3, 3)})
	got := e.Step(1)
	want := []Update{{Query: 1, Object: 10, Positive: true}}
	if !updatesEqual(got, want) {
		t.Fatalf("appearance: got %v, want %v", got, want)
	}

	// The object moves within the region: no updates (incremental!).
	e.ReportObject(ObjectUpdate{ID: 10, Kind: Moving, Loc: geo.Pt(4, 4)})
	if got := e.Step(2); len(got) != 0 {
		t.Fatalf("intra-region move: %v", got)
	}

	// The object leaves: one negative update.
	e.ReportObject(ObjectUpdate{ID: 10, Kind: Moving, Loc: geo.Pt(8, 8)})
	got = e.Step(3)
	want = []Update{{Query: 1, Object: 10, Positive: false}}
	if !updatesEqual(got, want) {
		t.Fatalf("departure: got %v, want %v", got, want)
	}

	// Unregistering emits nothing.
	e.ReportQuery(QueryUpdate{ID: 1, Remove: true})
	if got := e.Step(4); len(got) != 0 {
		t.Fatalf("removal: %v", got)
	}
	if e.NumQueries() != 0 {
		t.Fatalf("NumQueries = %d", e.NumQueries())
	}

	// Regions whose far edge is huge or infinite reach the last cells:
	// their max corner must not wrap around to cell 0.
	e.ReportObject(ObjectUpdate{ID: 11, Kind: Moving, Loc: geo.Pt(9, 5)})
	e.ReportQuery(QueryUpdate{ID: 2, Kind: Range, Region: geo.R(5, 0, math.Inf(1), 10)})
	e.ReportQuery(QueryUpdate{ID: 3, Kind: Range, Region: geo.R(5, 0, 1e300, 10)})
	e.Step(5)
	for q := QueryID(2); q <= 3; q++ {
		if got, _ := e.Answer(q); !slices.Equal(got, []ObjectID{10, 11}) {
			t.Fatalf("query %d: answer %v, want [10 11]", q, got)
		}
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

func TestRangeMovingQueryDiffOnly(t *testing.T) {
	e := newTestEngine(t)
	// Objects along a row.
	for i := 0; i < 10; i++ {
		e.ReportObject(ObjectUpdate{ID: ObjectID(i + 1), Kind: Stationary, Loc: geo.Pt(float64(i)+0.5, 5)})
	}
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 4, 4, 6)})
	got := e.Step(0)
	// Objects at x = 0.5,1.5,2.5,3.5 → ids 1..4.
	want := []Update{
		{1, 1, true}, {1, 2, true}, {1, 3, true}, {1, 4, true},
	}
	if !updatesEqual(got, want) {
		t.Fatalf("initial: got %v want %v", got, want)
	}

	// Slide the query right by 2: ids 1,2 leave; 5,6 enter; 3,4 stay
	// silent (the A_new ∩ A_old area is not re-evaluated).
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(2, 4, 6, 6)})
	got = e.Step(1)
	want = []Update{
		{1, 1, false}, {1, 2, false},
		{1, 5, true}, {1, 6, true},
	}
	if !updatesEqual(got, want) {
		t.Fatalf("slide: got %v want %v", got, want)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

func TestObjectAndQueryMoveSameStep(t *testing.T) {
	e := newTestEngine(t)
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 1)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2, 2)})
	e.Step(0)

	// Object and query both jump so the object stays inside: no updates.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(7, 7)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(6, 6, 8, 8)})
	if got := e.Step(1); len(got) != 0 {
		t.Fatalf("coordinated jump should be silent, got %v", got)
	}

	// Both jump so the object falls out: exactly one negative.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 1)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(4, 4, 5, 5)})
	got := e.Step(2)
	want := []Update{{1, 1, false}}
	if !updatesEqual(got, want) {
		t.Fatalf("divergent jump: got %v want %v", got, want)
	}
}

// TestObjectMovesOutsideBoundsIntoQuery: an object that moves past
// Bounds is clamped into an edge cell, and the phase-3 probe there must
// still admit it into a query that reaches past Bounds too.
func TestObjectMovesOutsideBoundsIntoQuery(t *testing.T) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 4})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(5, 0, 20, 10)})
	e.ReportObject(ObjectUpdate{ID: 7, Kind: Moving, Loc: geo.Pt(1, 1)})
	if got := e.Step(0); len(got) != 0 {
		t.Fatalf("object outside the query: got %v", got)
	}
	e.ReportObject(ObjectUpdate{ID: 7, Kind: Moving, Loc: geo.Pt(11, 5), T: 1})
	if got, want := e.Step(1), []Update{{1, 7, true}}; !updatesEqual(got, want) {
		t.Fatalf("object moved past Bounds into the query: got %v want %v", got, want)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

// TestRangeEdgeOnCellBoundary: a range region is closed, so an object
// on a max edge that lies on a cell boundary is a member, whether the
// object or the query arrives first. The grid stores that object in the
// cell past the boundary, which the region's entries must reach.
func TestRangeEdgeOnCellBoundary(t *testing.T) {
	for _, queryFirst := range []bool{true, false} {
		e := MustNewEngine(Options{Bounds: geo.R(0, 0, 16, 16), GridN: 8})
		q := QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2, 2)}
		o := ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(2, 1)}
		if queryFirst {
			e.ReportQuery(q)
			e.Step(0)
			e.ReportObject(o)
		} else {
			e.ReportObject(o)
			e.Step(0)
			e.ReportQuery(q)
		}
		e.Step(1)
		if got, _ := e.Answer(1); !slices.Equal(got, []ObjectID{1}) {
			t.Errorf("query first %v: answer %v, want [1]", queryFirst, got)
		}
		if err := e.CheckConsistency(true); err != nil {
			t.Errorf("query first %v: %v", queryFirst, err)
		}
	}
}

// TestRangeMovesOntoSegment: a region of no area is closed too, so a
// query moved onto a segment admits the objects lying on it.
func TestRangeMovesOntoSegment(t *testing.T) {
	e := newTestEngine(t)
	e.ReportObject(ObjectUpdate{ID: 7, Kind: Moving, Loc: geo.Pt(3, 5)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 1, 1)})
	e.Step(0)
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(3, 0, 3, 10), T: 1})
	if got, want := e.Step(1), []Update{{1, 7, true}}; !updatesEqual(got, want) {
		t.Fatalf("query moved onto a segment through an object: got %v want %v", got, want)
	}
}

// TestNaNReportRejected pins that a report holding a NaN anywhere is
// rejected, leaving the object's prior state in place: a NaN location
// has no grid cell, so an accepted one was counted but never indexed.
func TestNaNReportRejected(t *testing.T) {
	nan := math.NaN()
	for _, u := range []ObjectUpdate{
		{ID: 2, Kind: Moving, Loc: geo.Pt(nan, 5)},
		{ID: 2, Kind: Moving, Loc: geo.Pt(5, nan)},
		{ID: 2, Kind: Predictive, Loc: geo.Pt(5, 5), Vel: geo.Vec(nan, 0)},
		{ID: 2, Kind: Moving, Loc: geo.Pt(5, 5), T: nan},
		{ID: 2, Kind: Predictive, Loc: geo.Pt(5, 5), Waypoints: []geo.TimedPoint{{P: geo.Pt(6, 6), T: 1}, {P: geo.Pt(nan, 6), T: 2}}},
		{ID: 2, Kind: Predictive, Loc: geo.Pt(5, 5), Waypoints: []geo.TimedPoint{{P: geo.Pt(6, 6), T: nan}}},
	} {
		e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 4})
		e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 10, 10)})
		e.ReportObject(u)
		e.Step(0)
		if n := e.NumObjects(); n != 0 {
			t.Errorf("%+v: NumObjects = %d, want the report rejected", u, n)
		}
		if err := e.CheckConsistency(true); err != nil {
			t.Errorf("%+v: %v", u, err)
		}
		// A NaN report of a known object keeps its prior state.
		e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(1, 1), T: 1})
		e.Step(1)
		e.ReportObject(u)
		if got := e.Step(2); len(got) != 0 {
			t.Errorf("%+v: a rejected report streamed %v", u, got)
		}
		if ans, _ := e.Answer(1); !slices.Equal(ans, []ObjectID{2}) {
			t.Errorf("%+v: answer %v, want [2]", u, ans)
		}
	}
	// ±Inf stays accepted: the grid clamps it into an edge cell.
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 4})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(math.Inf(1), math.Inf(-1))})
	e.Step(0)
	if n := e.NumObjects(); n != 1 {
		t.Errorf("an infinite location: NumObjects = %d, want 1", n)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Error(err)
	}
}

func TestObjectRemoval(t *testing.T) {
	e := newTestEngine(t)
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(3, 3)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(2, 2, 4, 4)})
	e.ReportQuery(QueryUpdate{ID: 2, Kind: Range, Region: geo.R(0, 0, 5, 5)})
	e.Step(0)

	e.ReportObject(ObjectUpdate{ID: 1, Remove: true})
	got := e.Step(1)
	want := []Update{{1, 1, false}, {2, 1, false}}
	if !updatesEqual(got, want) {
		t.Fatalf("removal: got %v want %v", got, want)
	}
	if e.NumObjects() != 0 {
		t.Fatalf("NumObjects = %d", e.NumObjects())
	}
	// Removing twice is a no-op.
	e.ReportObject(ObjectUpdate{ID: 1, Remove: true})
	if got := e.Step(2); len(got) != 0 {
		t.Fatalf("double removal: %v", got)
	}
}

func TestDuplicateReportsInOneBatch(t *testing.T) {
	e := newTestEngine(t)
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 5, 5)})
	// The same object reports twice in one batch; only the final position
	// matters and exactly one positive update is emitted.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(8, 8)})
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(2, 2)})
	got := e.Step(0)
	want := []Update{{1, 1, true}}
	if !updatesEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestAnswerAccessors(t *testing.T) {
	e := newTestEngine(t)
	if _, ok := e.Answer(99); ok {
		t.Error("unknown query should report !ok")
	}
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(1, 1)})
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1.2, 1)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2, 2)})
	e.Step(0)
	got, ok := e.Answer(1)
	if !ok || len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Answer = %v, %v", got, ok)
	}
	if e.NumObjects() != 2 || e.NumQueries() != 1 {
		t.Fatalf("counts: %d objects, %d queries", e.NumObjects(), e.NumQueries())
	}
	if e.Now() != 0 {
		t.Fatalf("Now = %v", e.Now())
	}
	st := e.Stats()
	if st.Steps != 1 || st.ObjectReports != 2 || st.QueryReports != 1 || st.PositiveUpdates != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestQueryKindChangeReregisters(t *testing.T) {
	e := newTestEngine(t)
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 1)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2, 2)})
	e.Step(0)

	// Same ID re-registers as kNN; the range membership is dropped
	// silently and the kNN answer is built fresh.
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(5, 5), K: 1})
	got := e.Step(1)
	want := []Update{{1, 1, true}}
	if !updatesEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

func TestStationaryObjectsAndPendingCount(t *testing.T) {
	e := newTestEngine(t)
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Stationary, Loc: geo.Pt(1, 1)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2, 2)})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d", e.Pending())
	}
	e.Step(0)
	if e.Pending() != 0 {
		t.Fatalf("Pending after Step = %d", e.Pending())
	}
}

// TestUnknownQueryKindNoSideEffects: an update with an unrecognized
// kind must be rejected before any state is touched — in particular it
// must not re-register an existing query, auto-commit its answer or
// overwrite its timestamp, and the query must keep working afterwards.
// Protocol drops unknown kinds before the engine sees them, so the test
// runs both through Protocol and on the bare engine, whose own guard in
// applyQueryUpdate is otherwise unreached.
func TestUnknownQueryKindNoSideEffects(t *testing.T) {
	for _, wrap := range []struct {
		name string
		wrap func(*Engine) Processor
	}{
		{"protocol", func(e *Engine) Processor { return NewProtocol(e) }},
		{"bare", func(e *Engine) Processor { return e }},
	} {
		t.Run(wrap.name, func(t *testing.T) {
			eng := newTestEngine(t)
			e := wrap.wrap(eng)
			pr, _ := e.(*Protocol)

			// An unknown kind must not register a query at all.
			e.ReportQuery(QueryUpdate{ID: 7, Kind: QueryKind(99)})
			e.Step(0)
			if e.NumQueries() != 0 {
				t.Fatal("unknown kind registered a query")
			}

			e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(2, 2), T: 1})
			e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(1, 1, 3, 3), T: 1})
			e.Step(1)
			// Registration committed the then-empty answer; the object
			// joined afterwards, so the answer is uncommitted.
			if got, _ := e.Answer(1); len(got) != 1 {
				t.Fatalf("answer = %v", got)
			}
			if pr != nil {
				if ca, _ := pr.CommittedAnswer(1); len(ca) != 0 {
					t.Fatalf("committed = %v before the probe", ca)
				}
			}

			e.ReportQuery(QueryUpdate{ID: 1, Kind: QueryKind(99), T: 2})
			if got := e.Step(2); len(got) != 0 {
				t.Fatalf("unknown-kind update emitted %v", got)
			}
			if got, _ := e.Answer(1); len(got) != 1 {
				t.Fatalf("unknown-kind update changed the answer to %v", got)
			}
			if pr != nil {
				if ca, _ := pr.CommittedAnswer(1); len(ca) != 0 {
					t.Fatalf("unknown-kind update auto-committed: %v", ca)
				}
			}

			// The query still evaluates normally.
			e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(9, 9), T: 3})
			got := e.Step(3)
			want := []Update{{Query: 1, Object: 1, Positive: false}}
			if !updatesEqual(got, want) {
				t.Fatalf("got %v want %v", got, want)
			}
			if err := eng.CheckConsistency(true); err != nil {
				t.Fatal(err)
			}
		})
	}
}
