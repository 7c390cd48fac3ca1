package shard

import (
	"fmt"
	"testing"

	"cqp/internal/core"
	"cqp/internal/testutil/scenario"
)

// shardVocab is the differential vocabulary of every report shape the
// router routes: moving, predictive and trajectory objects, range, kNN
// and predictive queries, removals, kind changes, and uniform moves, a
// large fraction of them cross-tile.
const shardVocab = scenario.Velocity | scenario.Waypoints | scenario.KNN | churnVocab

// churnVocab is shardVocab without moving predictive objects, whose
// swept regions cover most of the space: the shapes of the protocol and
// hotspot differentials, which step the most.
const churnVocab = scenario.KNN | scenario.ObjectRemovals | scenario.QueryRemovals | scenario.KindChanges

// latticeVocab puts placements, focal points and region corners on the
// lattice, so kNN answers hold exact distance ties and region edges lie
// on cell and tile boundaries, and repeats objects and removes objects
// and queries. It leaves out the shapes that re-register or re-kind a
// query (MultiReport, KindChanges): the engine streams the old
// incarnation's retractions of such a query, and the router drops
// them. So the router's stream must equal the engine's update for
// update.
const latticeVocab = scenario.Velocity | scenario.Waypoints | scenario.KNN | scenario.ObjectRemovals |
	scenario.QueryRemovals | scenario.Repeats | scenario.Hotspot | scenario.Lattice

// orderVocab is a mixed workload of dense batches in which each object
// reports 2–4 times under a random kind — stationary, moving,
// predictive, with trajectories — and is removed and re-added; range and
// predictive queries register and move. Most of the moves cross a tile.
const orderVocab = scenario.Velocity | scenario.Waypoints | scenario.ObjectRemovals | scenario.Repeats

// TestDifferentialShardedVsSingle is the central correctness property
// of the sharded engine: a randomized workload through a 2×2 (and 1×4)
// sharded engine must match a single core.Engine — answers, committed
// answers, checksums and recovery diffs through core.Protocol — after
// every step, and its stream must replay into its subscribers'
// answers. The 2×2 runs also send malformed trajectories and
// over-speed predictive reports, which the router must reject exactly
// as the tile engines do. The lattice runs hold the router's stream to
// an engine's as well.
func TestDifferentialShardedVsSingle(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, 1234} {
		for _, grid := range [][2]int{{2, 2}, {1, 4}} {
			vocab := shardVocab
			if grid[0] == 2 {
				vocab |= scenario.Malformed | scenario.OverSpeed
			}
			t.Run("", func(t *testing.T) {
				g := scenario.NewGen(seed, vocab)
				scenario.Run(t, g, scenario.Config{Steps: 100, Procs: []core.Processor{newScenarioShard(t, g, grid[0], grid[1])}})
			})
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, grid := range [][2]int{{2, 2}, {1, 4}} {
			t.Run(fmt.Sprintf("lattice/%dx%d/seed=%d", grid[0], grid[1], seed), func(t *testing.T) {
				g := scenario.NewGen(seed, latticeVocab)
				scenario.Run(t, g, scenario.Config{Steps: 100, SameStream: true,
					Procs: []core.Processor{core.MustNewEngine(g.Options()), newScenarioShard(t, g, grid[0], grid[1])}})
			})
		}
	}
}

// TestShardStreamMatchesSingle holds the router's stream to the
// engine's, update for update, over dense batches that remove and
// re-add objects: both stream each step's net diff.
func TestShardStreamMatchesSingle(t *testing.T) {
	g := scenario.NewGen(29, orderVocab)
	scenario.Run(t, g, scenario.Config{Steps: 40, SameStream: true,
		Procs: []core.Processor{core.MustNewEngine(g.Options()), newScenarioShard(t, g, 2, 2)}})
}

// TestDifferentialRepeatedReports is the differential over batches that
// repeat objects, as a flooded server's inbox does: every object sends
// 2–4 reports per step, interleaved with the other objects', and they
// cross tiles inside the batch (A→B→A, A→B→C), remove and re-add
// objects, and change kinds. Only each object's state at the step
// boundary counts, so shard.NewN(opt, 4) must match the single engine.
func TestDifferentialRepeatedReports(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := scenario.NewGen(seed, shardVocab|scenario.Repeats|scenario.Malformed|scenario.OverSpeed)
			scenario.Run(t, g, scenario.Config{Steps: 80, Procs: []core.Processor{newScenarioShard(t, g, 2, 2)}})
		})
	}
}

// newScenarioShard builds a rows×cols sharded engine over src's options,
// closed when the test ends.
func newScenarioShard(t *testing.T, src scenario.Source, rows, cols int) *Engine {
	t.Helper()
	e, err := New(Options{Core: src.Options(), Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// FuzzScenario runs the single engine against a 2×2 sharded engine over
// any seed and vocabulary for 30 steps. Its corpus holds the seeds and
// vocabularies of the differential entry points.
func FuzzScenario(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, vocab uint32) {
		g := scenario.NewGen(seed, scenario.Vocab(vocab)&scenario.All)
		scenario.Run(t, g, scenario.Config{Steps: 30, Procs: []core.Processor{newScenarioShard(t, g, 2, 2)}})
	})
}
