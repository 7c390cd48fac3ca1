package shard

import (
	"slices"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/testutil/scenario"
)

func newTestShard(t *testing.T, rows, cols int) *Engine {
	t.Helper()
	e, err := New(Options{
		Core: core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8},
		Rows: rows, Cols: cols,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func answerOf(t *testing.T, p core.Processor, q core.QueryID) []core.ObjectID {
	t.Helper()
	ids, ok := p.Answer(q)
	if !ok {
		t.Fatalf("query %d unknown", q)
	}
	return ids
}

func TestSplit(t *testing.T) {
	cases := []struct{ n, rows, cols int }{
		{0, 1, 1}, {1, 1, 1}, {2, 1, 2}, {4, 2, 2},
		{6, 2, 3}, {7, 1, 7}, {9, 3, 3}, {12, 3, 4},
	}
	for _, c := range cases {
		r, co := Split(c.n)
		if r != c.rows || co != c.cols {
			t.Errorf("Split(%d) = %dx%d, want %dx%d", c.n, r, co, c.rows, c.cols)
		}
		if c.n >= 1 && r*co != c.n {
			t.Errorf("Split(%d) product %d", c.n, r*co)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{Core: core.Options{Bounds: geo.R(0, 0, 1, 1)}, Rows: -1},
		{Core: core.Options{Bounds: geo.R(0, 0, 1, 1)}, Cols: -2},
		{Core: core.Options{}}, // invalid core bounds
	}
	for i, o := range bad {
		if e, err := New(o); err == nil {
			e.Close()
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestTileOwnership(t *testing.T) {
	e := newTestShard(t, 2, 2)
	cases := []struct {
		p    geo.Point
		tile int
	}{
		{geo.Pt(1, 1), 0}, {geo.Pt(9, 1), 1},
		{geo.Pt(1, 9), 2}, {geo.Pt(9, 9), 3},
		{geo.Pt(-5, -5), 0}, // out of bounds clamps to corner tile
		{geo.Pt(50, 50), 3}, // ditto
		{geo.Pt(10, 10), 3}, // boundary clamps inward
		{geo.Pt(5, 5), 3},   // tile boundaries belong to the upper tile
	}
	for _, c := range cases {
		if got := e.tileOf(c.p); got != c.tile {
			t.Errorf("tileOf(%v) = %d, want %d", c.p, got, c.tile)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	e := newTestShard(t, 2, 2)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRangeAcrossTiles registers one range query spanning all four tiles
// and objects in each tile; the merged answer must contain every object
// exactly once.
func TestRangeAcrossTiles(t *testing.T) {
	runScript(t, scenario.Lookup("range-across-tiles"))
}

// TestKNNAcrossTiles places the k nearest of a focal point in different
// tiles and checks the merged global top-k is exact.
func TestKNNAcrossTiles(t *testing.T) {
	runScript(t, scenario.Lookup("knn-across-tiles"))
}

// TestKNNStarved checks that a query with fewer objects than k reports
// them all and picks up a later arrival anywhere in the space.
func TestKNNStarved(t *testing.T) {
	runScript(t, scenario.Lookup("knn-starved"))
}

// TestPredictiveAcrossTiles checks a predictive object in one tile is
// matched against a predictive query region in another tile.
func TestPredictiveAcrossTiles(t *testing.T) {
	runScript(t, scenario.Lookup("predictive-across-tiles"))
}

// TestCommitRecoverProtocol smoke-tests the out-of-sync protocol on the
// merged answers.
func TestCommitRecoverProtocol(t *testing.T) {
	runScript(t, scenario.Lookup("commit-recover"))
}

// TestQueryMoveAcrossTiles moves a range query's region from one tile
// to another; members must be swapped with proper updates and the old
// tile's replica torn down.
func TestQueryMoveAcrossTiles(t *testing.T) {
	s := scenario.Lookup("query-move-across-tiles")
	e := newScenarioShard(t, s, s.Rows, s.Cols)
	scenario.Run(t, s, scenario.Config{Procs: []core.Processor{e}})
	if covHas(e.qrys[1].coverage, 0) {
		t.Fatal("old tile should no longer hold a replica")
	}
}

// TestRegisterAndMoveInOneBatch registers a range query and moves it
// off its first region in the same batch. The registration's positive
// and the move's negative net out, so the merged answer is empty, as
// the single engine's is.
func TestRegisterAndMoveInOneBatch(t *testing.T) {
	runScript(t, scenario.Lookup("register-and-move"))
}

// TestUnknownQueryKindRejectedAtRouter mirrors the core engine: an
// unknown kind must not register, and on an existing query must not
// commit or mutate anything. Protocol drops unknown kinds first, so the
// test runs both through Protocol and on the bare router, whose own
// guard in the query phase is otherwise unreached.
func TestUnknownQueryKindRejectedAtRouter(t *testing.T) {
	for _, wrap := range []struct {
		name string
		wrap func(*Engine) core.Processor
	}{
		{"protocol", func(e *Engine) core.Processor { return core.NewProtocol(e) }},
		{"bare", func(e *Engine) core.Processor { return e }},
	} {
		t.Run(wrap.name, func(t *testing.T) {
			e := wrap.wrap(newTestShard(t, 2, 2))
			e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.QueryKind(99)})
			e.Step(0)
			if e.NumQueries() != 0 {
				t.Fatal("unknown kind should not register")
			}

			e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(2, 2), T: 1})
			e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(1, 1, 3, 3), T: 1})
			e.Step(1)
			e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.QueryKind(99), T: 2})
			if got := e.Step(2); len(got) != 0 {
				t.Fatalf("unknown-kind update emitted %v", got)
			}
			if got := answerOf(t, e, 1); !slices.Equal(got, []core.ObjectID{1}) {
				t.Fatalf("unknown-kind update changed the answer to %v", got)
			}
			if pr, ok := e.(*core.Protocol); ok {
				ca, ok := pr.CommittedAnswer(1)
				if !ok || len(ca) != 0 {
					t.Fatalf("unknown-kind update must not auto-commit; committed = %v", ca)
				}
			}
		})
	}
}

// TestStatsAggregation checks router counters and shard work counters.
func TestStatsAggregation(t *testing.T) {
	e := newTestShard(t, 2, 2)
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(2, 2)})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(2, 2), K: 1})
	e.Step(0)
	s := e.Stats()
	if s.Steps != 1 || s.ObjectReports != 1 || s.QueryReports != 1 {
		t.Fatalf("router counters = %+v", s)
	}
	if s.PositiveUpdates != 1 {
		t.Fatalf("PositiveUpdates = %d", s.PositiveUpdates)
	}
	if s.KNNRecomputes == 0 {
		t.Fatal("expected shard kNN work to be aggregated")
	}
}
