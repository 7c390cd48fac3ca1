package shard

import (
	"sort"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
)

// Cross-shard object migration is the delicate spot of the routing
// protocol: a move across a tile boundary is split into a removal in
// the old tile and an insertion in the new one, and the merge layer
// must turn the resulting per-tile streams into exactly the updates a
// single engine would emit — one negative for a query left behind, one
// positive for a query entered, and *nothing* for a query spanning both
// tiles.

// TestMigrationBetweenDisjointQueries: the object leaves tile 0's range
// query and enters tile 1's — exactly one negative and one positive.
func TestMigrationBetweenDisjointQueries(t *testing.T) {
	e := newTestShard(t, 1, 2) // tiles: x < 5 and x >= 5
	const qA, qB = core.QueryID(1), core.QueryID(2)
	e.ReportQuery(core.QueryUpdate{ID: qA, Kind: core.Range, Region: geo.R(1, 4, 3, 6)})
	e.ReportQuery(core.QueryUpdate{ID: qB, Kind: core.Range, Region: geo.R(7, 4, 9, 6)})
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(2, 5)})
	updates := e.Step(0)
	if len(updates) != 1 || updates[0] != (core.Update{Query: qA, Object: 1, Positive: true}) {
		t.Fatalf("setup updates = %v", updates)
	}

	// Migrate: tile 0, inside A  →  tile 1, inside B.
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(8, 5), T: 1})
	updates = e.Step(1)
	sort.Slice(updates, func(i, j int) bool { return updates[i].Query < updates[j].Query })
	want := []core.Update{
		{Query: qA, Object: 1, Positive: false},
		{Query: qB, Object: 1, Positive: true},
	}
	if len(updates) != 2 || updates[0] != want[0] || updates[1] != want[1] {
		t.Fatalf("migration updates = %v, want exactly %v", updates, want)
	}
	if got := answerOf(t, e, qA); len(got) != 0 {
		t.Fatalf("A should be empty, got %v", got)
	}
	if got := answerOf(t, e, qB); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("B = %v", got)
	}
}

// TestMigrationWithinSpanningQuery: the object crosses the tile
// boundary but stays inside one query spanning both tiles — the old
// tile's negative and the new tile's positive must cancel to zero
// emitted updates, with the object never leaving the answer. The
// cancellation counts once in shard.merge.netted: one per (query,
// object) pair, not one per update.
func TestMigrationWithinSpanningQuery(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := New(Options{
		Core: core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8, Metrics: reg},
		Rows: 1, Cols: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	netted := reg.Counter("shard.merge.netted")
	const q = core.QueryID(1)
	e.ReportQuery(core.QueryUpdate{ID: q, Kind: core.Range, Region: geo.R(2, 2, 8, 8)})
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(4, 5)})
	e.Step(0)
	if got := answerOf(t, e, q); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("setup answer = %v", got)
	}

	before := netted.Value()
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(6, 5), T: 1})
	updates := e.Step(1)
	if len(updates) != 0 {
		t.Fatalf("spanning-query migration must emit nothing, got %v", updates)
	}
	if got := answerOf(t, e, q); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("answer after migration = %v", got)
	}
	if got := netted.Value() - before; got != 1 {
		t.Fatalf("shard.merge.netted grew by %d, want 1 (one cancelled pair)", got)
	}
}

// TestMigrationRemoveReaddSameStep: an object removed and re-reported
// in one step, staying inside a query, is an in-batch transient. The
// merge drops it whether the query sits on one tile or spans both: no
// update, answer unchanged.
func TestMigrationRemoveReaddSameStep(t *testing.T) {
	for _, tc := range []struct {
		name   string
		region geo.Rect
	}{
		{"one-tile", geo.R(1, 4, 3, 6)},
		{"spanning", geo.R(2, 2, 8, 8)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestShard(t, 1, 2)
			const q, o = core.QueryID(1), core.ObjectID(7)
			e.ReportQuery(core.QueryUpdate{ID: q, Kind: core.Range, Region: tc.region})
			e.ReportObject(core.ObjectUpdate{ID: o, Kind: core.Moving, Loc: geo.Pt(2.5, 5)})
			e.Step(0)
			if got := answerOf(t, e, q); !idsEqual(got, []core.ObjectID{o}) {
				t.Fatalf("setup answer = %v", got)
			}

			e.ReportObject(core.ObjectUpdate{ID: o, Remove: true, T: 1})
			e.ReportObject(core.ObjectUpdate{ID: o, Kind: core.Moving, Loc: geo.Pt(2.5, 5), T: 1})
			if updates := e.Step(1); len(updates) != 0 {
				t.Fatalf("remove and re-add inside the query must emit nothing, got %v", updates)
			}
			if got := answerOf(t, e, q); !idsEqual(got, []core.ObjectID{o}) {
				t.Fatalf("answer after remove and re-add = %v", got)
			}
		})
	}
}

// TestMigrationOutOfSpanningQuery: the object crosses tiles AND leaves
// the spanning query — exactly one negative, no duplicate from the two
// tile streams.
func TestMigrationOutOfSpanningQuery(t *testing.T) {
	e := newTestShard(t, 1, 2)
	const q = core.QueryID(1)
	e.ReportQuery(core.QueryUpdate{ID: q, Kind: core.Range, Region: geo.R(2, 2, 8, 8)})
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(4, 5)})
	e.Step(0)

	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(9.5, 5), T: 1})
	updates := e.Step(1)
	if len(updates) != 1 || updates[0] != (core.Update{Query: q, Object: 1, Positive: false}) {
		t.Fatalf("updates = %v, want exactly one negative", updates)
	}
}

// TestMigrationChainSameStep: several objects migrating in opposite
// directions in one step must each resolve independently.
func TestMigrationChainSameStep(t *testing.T) {
	e := newTestShard(t, 1, 2)
	const q = core.QueryID(1)
	e.ReportQuery(core.QueryUpdate{ID: q, Kind: core.Range, Region: geo.R(2, 2, 8, 8)})
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(4, 5)}) // tile 0, in q
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(6, 5)}) // tile 1, in q
	e.ReportObject(core.ObjectUpdate{ID: 3, Kind: core.Moving, Loc: geo.Pt(9, 5)}) // tile 1, out
	e.Step(0)

	// 1 and 2 swap tiles (both stay in q); 3 enters tile 0 inside q.
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(6, 4), T: 1})
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(4, 4), T: 1})
	e.ReportObject(core.ObjectUpdate{ID: 3, Kind: core.Moving, Loc: geo.Pt(3, 5), T: 1})
	updates := e.Step(1)
	if len(updates) != 1 || updates[0] != (core.Update{Query: q, Object: 3, Positive: true}) {
		t.Fatalf("updates = %v, want exactly (+3)", updates)
	}
	if got := answerOf(t, e, q); !idsEqual(got, []core.ObjectID{1, 2, 3}) {
		t.Fatalf("answer = %v", got)
	}

	// Ownership bookkeeping must have followed the moves.
	if e.objs[1].tile != 1 || e.objs[2].tile != 0 || e.objs[3].tile != 0 {
		t.Fatalf("tiles = %d %d %d", e.objs[1].tile, e.objs[2].tile, e.objs[3].tile)
	}
	if e.objCount[0] != 2 || e.objCount[1] != 1 {
		t.Fatalf("objCount = %v", e.objCount)
	}
}

// TestMigrationOfKNNMember: a kNN answer member migrating across tiles
// while remaining one of the k nearest must not flicker out of the
// answer.
func TestMigrationOfKNNMember(t *testing.T) {
	e := newTestShard(t, 1, 2)
	const q = core.QueryID(1)
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(4.8, 5)})
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9, 9)})
	e.ReportQuery(core.QueryUpdate{ID: q, Kind: core.KNN, Focal: geo.Pt(5, 5), K: 1})
	e.Step(0)
	if got := answerOf(t, e, q); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("setup answer = %v", got)
	}

	// Cross the boundary, still nearest.
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5.2, 5), T: 1})
	updates := e.Step(1)
	if len(updates) != 0 {
		t.Fatalf("migrating nearest neighbor should emit nothing, got %v", updates)
	}
	if got := answerOf(t, e, q); !idsEqual(got, []core.ObjectID{1}) {
		t.Fatalf("answer = %v", got)
	}
}
