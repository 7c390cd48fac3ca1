package shard

import (
	"math/rand"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// benchShard builds a sharded engine with a uniform population. -short
// shrinks the population so the CI bench smoke (one iteration) stays
// cheap.
func benchShard(tb testing.TB, tiles int, ro RepartitionOptions) (*Engine, *rand.Rand, int) {
	objects, queries := 10000, 2000
	if testing.Short() {
		objects, queries = 1000, 200
	}
	rows, cols := Split(tiles)
	e := MustNew(Options{
		Core:        core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 64, PredictiveHorizon: 100},
		Rows:        rows,
		Cols:        cols,
		Repartition: ro,
	})
	tb.Cleanup(func() { e.Close() })
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < objects; i++ {
		e.ReportObject(core.ObjectUpdate{
			ID: core.ObjectID(i + 1), Kind: core.Moving,
			Loc: geo.Pt(rng.Float64(), rng.Float64()),
		})
	}
	for j := 0; j < queries; j++ {
		e.ReportQuery(core.QueryUpdate{
			ID: core.QueryID(j + 1), Kind: core.Range,
			Region: geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.01),
		})
	}
	e.Step(0)
	return e, rng, objects
}

// shardChurn reports a fresh uniform location for 3% of the population
// at time tick, returning the number of moves.
func shardChurn(e *Engine, rng *rand.Rand, objects int, tick float64) int {
	moves := objects / 33
	for n := 0; n < moves; n++ {
		e.ReportObject(core.ObjectUpdate{
			ID: core.ObjectID(1 + rng.Intn(objects)), Kind: core.Moving,
			Loc: geo.Pt(rng.Float64(), rng.Float64()), T: tick,
		})
	}
	return moves
}

// BenchmarkShardStep measures the router's full Step — route,
// broadcast, merge — with 3% of the population moving per tick across
// a 2×2 tiling.
func BenchmarkShardStep(b *testing.B) {
	e, rng, objects := benchShard(b, 4, RepartitionOptions{})
	moves := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves = shardChurn(e, rng, objects, float64(i+1))
		e.Step(float64(i + 1))
	}
	b.ReportMetric(float64(moves), "moves/op")
}

// TestShardStepAppendSteadyStateAllocs pins the router's steady-state
// allocations, the counterpart of core's TestStepSteadyStateAllocs:
// BenchmarkShardStep's churn on the benchShard 2×2 population, stepped
// with StepAppend into one reused buffer. The count covers the four
// tile engines too. The merge's scratch (the fold's membership buffer,
// the per-round runs and cursors) is engine-owned and reused; a
// per-query buffer would cost hundreds of allocations per tick.
func TestShardStepAppendSteadyStateAllocs(t *testing.T) {
	e, rng, objects := benchShard(t, 4, RepartitionOptions{})
	var buf []core.Update
	tick := 0
	step := func() {
		tick++
		shardChurn(e, rng, objects, float64(tick))
		buf = e.StepAppend(buf[:0], float64(tick))
	}
	// Warm up until tile slabs, answers and scratch reach their
	// high-water marks.
	for i := 0; i < 100; i++ {
		step()
	}
	avg := testing.AllocsPerRun(20, step)
	const budget = 430 // measured 376, with core's headroom (44 measured, budget 50)
	t.Logf("steady-state shard StepAppend: %.1f allocs/tick (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("steady-state shard StepAppend allocates %.1f times per tick; budget is %d", avg, budget)
	}
}

// BenchmarkShardStepRepartition is BenchmarkShardStep with the
// load-aware split/merge policy active and a hotspot drifting through
// the space, so splits and merges actually run while the clock ticks.
func BenchmarkShardStepRepartition(b *testing.B) {
	e, rng, objects := benchShard(b, 4, RepartitionOptions{Enable: true, Interval: 4, MaxTiles: 16})
	moves := objects / 33
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The hotspot corner wanders so the hot tile changes over time.
		cx := 0.4 + 0.4*float64(i%8)/8
		for n := 0; n < moves; n++ {
			id := core.ObjectID(1 + rng.Intn(objects))
			loc := geo.Pt(rng.Float64(), rng.Float64())
			if n%2 == 0 {
				loc = geo.Pt(cx+rng.Float64()*0.1, rng.Float64()*0.1)
			}
			e.ReportObject(core.ObjectUpdate{
				ID: id, Kind: core.Moving, Loc: loc, T: float64(i + 1),
			})
		}
		e.Step(float64(i + 1))
	}
	b.ReportMetric(float64(moves), "moves/op")
}
