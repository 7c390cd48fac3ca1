package shard

import (
	"testing"

	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/testutil/scenario"
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
	runScript(t, scenario.Lookup("migrate-between-disjoint"))
}

// TestMigrationWithinSpanningQuery: the object crosses the tile
// boundary but stays inside one query spanning both tiles — the old
// tile's negative and the new tile's positive must cancel to zero
// emitted updates, with the object never leaving the answer. The
// cancellation counts once in shard.merge.netted: one per (query,
// object) pair, not one per update.
func TestMigrationWithinSpanningQuery(t *testing.T) {
	s := scenario.Lookup("migrate-within-spanning")
	reg := obs.NewRegistry()
	opt := s.Options()
	opt.Metrics = reg
	e := MustNew(Options{Core: opt, Rows: s.Rows, Cols: s.Cols})
	defer e.Close()
	netted := reg.Counter("shard.merge.netted")
	var before uint64
	scenario.Run(t, s, scenario.Config{Procs: []core.Processor{e}, Before: func(int) { before = netted.Value() }})
	if got := netted.Value() - before; got != 1 {
		t.Fatalf("shard.merge.netted grew by %d, want 1 (one cancelled pair)", got)
	}
}

// TestMigrationRemoveReaddSameStep: an object removed and re-reported
// in one step, staying inside a query, has moved. The merge nets the
// tile's retraction and assertion whether the query sits on one tile or
// spans both: no update, answer unchanged.
func TestMigrationRemoveReaddSameStep(t *testing.T) {
	for _, name := range []string{"one-tile", "spanning"} {
		t.Run(name, func(t *testing.T) {
			runScript(t, scenario.Lookup("remove-readd-"+name))
		})
	}
}

// TestMigrationOutOfSpanningQuery: the object crosses tiles AND leaves
// the spanning query — exactly one negative, no duplicate from the two
// tile streams.
func TestMigrationOutOfSpanningQuery(t *testing.T) {
	runScript(t, scenario.Lookup("migrate-out-of-spanning"))
}

// TestMigrationChainSameStep: several objects migrating in opposite
// directions in one step must each resolve independently.
func TestMigrationChainSameStep(t *testing.T) {
	s := scenario.Lookup("migrate-chain")
	e := newScenarioShard(t, s, s.Rows, s.Cols)
	scenario.Run(t, s, scenario.Config{Procs: []core.Processor{e}})
	// Ownership bookkeeping must have followed the moves.
	if e.objs[1].tile != 1 || e.objs[2].tile != 0 || e.objs[3].tile != 0 || e.objCount[0] != 2 || e.objCount[1] != 1 {
		t.Fatalf("tiles = %d %d %d, objCount = %v", e.objs[1].tile, e.objs[2].tile, e.objs[3].tile, e.objCount)
	}
}

// TestMigrationOfKNNMember: a kNN answer member migrating across tiles
// while remaining one of the k nearest must not flicker out of the
// answer.
func TestMigrationOfKNNMember(t *testing.T) {
	runScript(t, scenario.Lookup("migrate-knn-member"))
}

// TestMigrationOfRemovedQueryMember: a member of a query removed in the
// same batch crosses tiles. The single engine drops the query silently
// but for the members removed in the batch; the merge must not turn the
// old tile's retraction into a negative, or the stream would depend on
// where the seams lie.
func TestMigrationOfRemovedQueryMember(t *testing.T) {
	runScript(t, scenario.Lookup("migrate-in-removed-query"))
}
