package shard

import (
	"cmp"
	"slices"
	"testing"

	"cqp/internal/core"
	"cqp/internal/testutil/scenario"
)

// This file pins the sharded engine's half of the reproducibility
// contract: Step output is in core.SortUpdates order, identical runs
// produce bit-identical streams, and for workloads where emission is
// attributable to a single engine semantics (no same-step teardown
// races), the sharded stream equals the single-space engine's stream
// element for element — not merely as a multiset.

// orderVocab is a mixed workload whose every update is attributable
// identically under both architectures: dense batches in which each
// object reports 2–4 times under a random kind — stationary, moving,
// predictive, with trajectories — and is removed and re-added; range
// and predictive queries that register and move, never re-kinded,
// removed or kNN. Most of the moves cross a tile.
const orderVocab = scenario.Velocity | scenario.Waypoints | scenario.ObjectRemovals | scenario.Repeats

// TestShardStepCanonicalOrder asserts the sharded engine's Step output
// is in core.SortUpdates order.
func TestShardStepCanonicalOrder(t *testing.T) {
	g := scenario.NewGen(17, orderVocab)
	scenario.Run(t, g, scenario.Config{
		Steps: 40, Procs: []core.Processor{newScenarioShard(t, g, 2, 2)},
		After: func(step int, streams [][]core.Update) {
			if s := streams[1]; !slices.IsSortedFunc(s, func(a, b core.Update) int {
				return cmp.Or(cmp.Compare(a.Query, b.Query), cmp.Compare(a.Object, b.Object))
			}) {
				t.Fatalf("step %d emitted out of canonical order: %v", step, s)
			}
		},
	})
}

// TestShardStreamReproducible runs the identical workload through two
// identically configured sharded engines and requires bit-identical
// streams: tile goroutine scheduling and map iteration must not leak
// into the merged output.
func TestShardStreamReproducible(t *testing.T) {
	g := scenario.NewGen(23, orderVocab)
	scenario.Run(t, g, scenario.Config{
		Steps: 40, SameStream: true,
		Procs: []core.Processor{newScenarioShard(t, g, 2, 2), newScenarioShard(t, g, 2, 2)},
	})
}

// TestShardStreamMatchesSingle is the strongest form of the differential
// contract available for this workload class: for range and predictive
// queries (where every update is attributable identically under both
// architectures), the sharded engine's canonical stream must equal the
// single-space engine's — element for element after netting same-step
// transients, which are the one documented representational difference.
func TestShardStreamMatchesSingle(t *testing.T) {
	g := scenario.NewGen(29, orderVocab)
	scenario.Run(t, g, scenario.Config{
		Steps: 40, Procs: []core.Processor{newScenarioShard(t, g, 2, 2)},
		After: func(step int, streams [][]core.Update) {
			if a, b := scenario.Net(streams[0]), scenario.Net(streams[1]); !slices.Equal(a, b) {
				t.Fatalf("sharded stream diverged from single at step %d:\nsingle:  %v\nsharded: %v", step, a, b)
			}
		},
	})
}
