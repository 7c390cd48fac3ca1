package shard

import (
	"sort"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
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

func idsEqual(a, b []core.ObjectID) bool {
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
	e := newTestShard(t, 2, 2)
	locs := []geo.Point{geo.Pt(2, 2), geo.Pt(8, 2), geo.Pt(2, 8), geo.Pt(8, 8)}
	for i, p := range locs {
		e.ReportObject(core.ObjectUpdate{ID: core.ObjectID(i + 1), Kind: core.Moving, Loc: p})
	}
	e.ReportObject(core.ObjectUpdate{ID: 99, Kind: core.Moving, Loc: geo.Pt(9.8, 0.2)}) // outside region
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(1, 1, 9, 9)})
	updates := e.Step(0)

	if want := 4; len(updates) != want {
		t.Fatalf("got %d updates %v, want %d", len(updates), updates, want)
	}
	got := answerOf(t, e, 1)
	if !idsEqual(got, []core.ObjectID{1, 2, 3, 4}) {
		t.Fatalf("answer = %v", got)
	}
	if n := e.NumObjects(); n != 5 {
		t.Fatalf("NumObjects = %d", n)
	}
}

// TestKNNAcrossTiles places the k nearest of a focal point in different
// tiles and checks the merged global top-k is exact.
func TestKNNAcrossTiles(t *testing.T) {
	e := newTestShard(t, 2, 2)
	// Focal at the center: the four nearest straddle all four tiles.
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(4.6, 4.6)})
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(5.3, 4.7)})
	e.ReportObject(core.ObjectUpdate{ID: 3, Kind: core.Moving, Loc: geo.Pt(4.7, 5.2)})
	e.ReportObject(core.ObjectUpdate{ID: 4, Kind: core.Moving, Loc: geo.Pt(5.4, 5.4)})
	// Far decoys, one per tile.
	e.ReportObject(core.ObjectUpdate{ID: 5, Kind: core.Moving, Loc: geo.Pt(0.5, 0.5)})
	e.ReportObject(core.ObjectUpdate{ID: 6, Kind: core.Moving, Loc: geo.Pt(9.5, 0.5)})
	e.ReportObject(core.ObjectUpdate{ID: 7, Kind: core.Moving, Loc: geo.Pt(0.5, 9.5)})
	e.ReportObject(core.ObjectUpdate{ID: 8, Kind: core.Moving, Loc: geo.Pt(9.5, 9.5)})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(5, 5), K: 4})
	e.Step(0)

	got := answerOf(t, e, 1)
	if !idsEqual(got, []core.ObjectID{1, 2, 3, 4}) {
		t.Fatalf("top-4 = %v", got)
	}

	// A decoy moves in and displaces the current 4th: exactly one
	// negative and one positive.
	e.ReportObject(core.ObjectUpdate{ID: 8, Kind: core.Moving, Loc: geo.Pt(5.1, 5.1), T: 1})
	updates := e.Step(1)
	if len(updates) != 2 {
		t.Fatalf("updates = %v", updates)
	}
	got = answerOf(t, e, 1)
	if !idsEqual(got, []core.ObjectID{1, 2, 3, 8}) {
		t.Fatalf("top-4 after intrusion = %v", got)
	}
}

// TestKNNStarved checks that a query with fewer objects than k reports
// them all and picks up a later arrival anywhere in the space.
func TestKNNStarved(t *testing.T) {
	e := newTestShard(t, 2, 2)
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(1, 1), K: 3})
	e.Step(0)
	if got := answerOf(t, e, 1); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("starved answer = %v", got)
	}
	// An object arriving in the far corner must still be noticed.
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9.9, 9.9), T: 1})
	e.Step(1)
	if got := answerOf(t, e, 1); !idsEqual(got, []core.ObjectID{1, 2}) {
		t.Fatalf("answer after arrival = %v", got)
	}
}

// TestPredictiveAcrossTiles checks a predictive object in one tile is
// matched against a predictive query region in another tile.
func TestPredictiveAcrossTiles(t *testing.T) {
	e := newTestShard(t, 2, 2)
	// Object in tile 0 heading toward tile 3.
	e.ReportObject(core.ObjectUpdate{
		ID: 1, Kind: core.Predictive,
		Loc: geo.Pt(1, 1), Vel: geo.Vec(1, 1), T: 0,
	})
	// Region entirely inside tile 3; window when the object is there.
	e.ReportQuery(core.QueryUpdate{
		ID: 1, Kind: core.PredictiveRange,
		Region: geo.R(7, 7, 9, 9), T1: 6, T2: 8, T: 0,
	})
	e.Step(0)
	if got := answerOf(t, e, 1); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("predictive answer = %v", got)
	}
}

// TestCommitRecoverProtocol smoke-tests the out-of-sync protocol on the
// merged answers.
func TestCommitRecoverProtocol(t *testing.T) {
	e := core.NewProtocol(newTestShard(t, 2, 2))
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(2, 2)})
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(8, 8)})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(1, 1, 9, 9)})
	e.Step(0)

	if !e.Commit(1) {
		t.Fatal("Commit failed")
	}
	cs, _ := e.CommittedChecksum(1)
	as, _ := e.AnswerChecksum(1)
	if cs != as {
		t.Fatal("committed checksum should match answer checksum after Commit")
	}

	// Object 1 leaves, object 3 arrives; the client missed both.
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(0.1, 0.1), T: 1})
	e.ReportObject(core.ObjectUpdate{ID: 3, Kind: core.Moving, Loc: geo.Pt(5, 5), T: 1})
	e.Step(1)

	rec, ok := e.Recover(1)
	if !ok {
		t.Fatal("Recover failed")
	}
	want := []core.Update{
		{Query: 1, Object: 1, Positive: false},
		{Query: 1, Object: 3, Positive: true},
	}
	if len(rec) != len(want) {
		t.Fatalf("recovery = %v, want %v", rec, want)
	}
	for i := range want {
		if rec[i] != want[i] {
			t.Fatalf("recovery = %v, want %v", rec, want)
		}
	}
	ca, _ := e.CommittedAnswer(1)
	if !idsEqual(ca, []core.ObjectID{2, 3}) {
		t.Fatalf("committed after recover = %v", ca)
	}

	if _, ok := e.Recover(42); ok {
		t.Fatal("Recover of unknown query should fail")
	}
	if e.SeedCommitted(42, nil) {
		t.Fatal("SeedCommitted of unknown query should fail")
	}
	if e.SeedCommitted(1, []core.ObjectID{7}) != true {
		t.Fatal("SeedCommitted failed")
	}
	ca, _ = e.CommittedAnswer(1)
	if !idsEqual(ca, []core.ObjectID{7}) {
		t.Fatalf("seeded committed = %v", ca)
	}
}

// TestQueryMoveAcrossTiles moves a range query's region from one tile
// to another; members must be swapped with proper updates and the old
// tile's replica torn down.
func TestQueryMoveAcrossTiles(t *testing.T) {
	e := newTestShard(t, 1, 2)
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(2, 5)})
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(8, 5)})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(1, 4, 3, 6)})
	e.Step(0)
	if got := answerOf(t, e, 1); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("answer = %v", got)
	}

	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(7, 4, 9, 6), T: 1})
	updates := e.Step(1)
	sort.Slice(updates, func(i, j int) bool { return updates[i].Object < updates[j].Object })
	want := []core.Update{
		{Query: 1, Object: 1, Positive: false},
		{Query: 1, Object: 2, Positive: true},
	}
	if len(updates) != 2 || updates[0] != want[0] || updates[1] != want[1] {
		t.Fatalf("updates = %v, want %v", updates, want)
	}
	if covHas(e.qrys[1].coverage, 0) {
		t.Fatal("old tile should no longer hold a replica")
	}
}

// TestRegisterAndMoveInOneBatch registers a range query and moves it
// off its first region in the same batch. The registration's positive
// and the move's negative net out, so the merged answer is empty, as
// the single engine's is.
func TestRegisterAndMoveInOneBatch(t *testing.T) {
	e := newTestShard(t, 2, 2)
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	e.Step(0)
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2), T: 1})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(6, 6, 8, 8), T: 1})
	e.Step(1)
	if got := answerOf(t, e, 1); len(got) != 0 {
		t.Fatalf("answer = %v, want empty", got)
	}
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
			if got := answerOf(t, e, 1); !idsEqual(got, []core.ObjectID{1}) {
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
