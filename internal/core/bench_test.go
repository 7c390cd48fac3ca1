package core

import (
	"math/rand"
	"testing"

	"cqp/internal/geo"
)

// benchEngine builds an engine with a uniform population.
func benchEngine(objects, queries int, kind QueryKind) (*Engine, *rand.Rand) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 1, 1), GridN: 64, PredictiveHorizon: 100})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < objects; i++ {
		e.ReportObject(ObjectUpdate{
			ID: ObjectID(i + 1), Kind: Moving,
			Loc: geo.Pt(rng.Float64(), rng.Float64()),
		})
	}
	for j := 0; j < queries; j++ {
		u := QueryUpdate{ID: QueryID(j + 1), Kind: kind}
		switch kind {
		case Range:
			u.Region = geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.01)
		case KNN:
			u.Focal = geo.Pt(rng.Float64(), rng.Float64())
			u.K = 5
		}
		e.ReportQuery(u)
	}
	e.Step(0)
	return e, rng
}

// BenchmarkStepObjectMoves measures the per-evaluation cost of object
// movement against 10K range queries: the object side of the shared join.
func BenchmarkStepObjectMoves(b *testing.B) {
	e, rng := benchEngine(10000, 10000, Range)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 100; n++ {
			id := ObjectID(1 + rng.Intn(10000))
			e.ReportObject(ObjectUpdate{
				ID: id, Kind: Moving,
				Loc: geo.Pt(rng.Float64(), rng.Float64()), T: float64(i),
			})
		}
		e.Step(float64(i))
	}
	b.ReportMetric(100, "moves/op")
}

// BenchmarkStepQueryMoves measures the query side: incremental
// A_new − A_old evaluation for sliding regions.
func BenchmarkStepQueryMoves(b *testing.B) {
	e, rng := benchEngine(10000, 10000, Range)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 100; n++ {
			id := QueryID(1 + rng.Intn(10000))
			e.ReportQuery(QueryUpdate{
				ID: id, Kind: Range,
				Region: geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.01),
				T:      float64(i),
			})
		}
		e.Step(float64(i))
	}
	b.ReportMetric(100, "moves/op")
}

// BenchmarkStepKNNMaintenance measures dirty-circle kNN upkeep under
// object churn.
func BenchmarkStepKNNMaintenance(b *testing.B) {
	e, rng := benchEngine(10000, 1000, KNN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for n := 0; n < 100; n++ {
			id := ObjectID(1 + rng.Intn(10000))
			e.ReportObject(ObjectUpdate{
				ID: id, Kind: Moving,
				Loc: geo.Pt(rng.Float64(), rng.Float64()), T: float64(i),
			})
		}
		e.Step(float64(i))
	}
	b.ReportMetric(float64(e.Stats().KNNRecomputes)/float64(b.N), "recomputes/op")
}

// stepChurn applies one steady-state tick: nMoves objects re-report random
// locations and the engine steps.
func stepChurn(e *Engine, rng *rand.Rand, objects, nMoves int, t float64) {
	for n := 0; n < nMoves; n++ {
		id := ObjectID(1 + rng.Intn(objects))
		e.ReportObject(ObjectUpdate{
			ID: id, Kind: Moving,
			Loc: geo.Pt(rng.Float64(), rng.Float64()), T: t,
		})
	}
	e.Step(t)
}

// BenchmarkStepSteadyState is the allocation-regression sentinel: a warmed
// engine under constant object churn, where every scratch buffer has
// reached its working size. allocs/op here is the number that must stay
// small — see TestStepSteadyStateAllocs for the hard pin.
func BenchmarkStepSteadyState(b *testing.B) {
	const objects, queries, moves = 10000, 10000, 100
	e, rng := benchEngine(objects, queries, Range)
	for i := 0; i < 5; i++ { // reach scratch steady state before measuring
		stepChurn(e, rng, objects, moves, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepChurn(e, rng, objects, moves, float64(5+i))
	}
	b.ReportMetric(moves, "moves/op")
}

// TestStepSteadyStateAllocs pins the allocation count of a steady-state
// Step so regressions fail loudly rather than silently eroding the flat
// grid's gains. The budget covers the per-Step contract allocation (the
// returned update slice), answer-map resizes under churn, and sort
// scratch; it does NOT leave room for per-candidate or per-cell
// allocations — reintroducing any of those blows the budget immediately
// (a 100-move tick against 10K queries used to cost thousands of
// allocations with closure sorts and per-visit temporaries).
//
// The subtest keeps its established name: parallelism=0 is the serial
// engine, now the only join path.
func TestStepSteadyStateAllocs(t *testing.T) {
	t.Run("parallelism=0", func(t *testing.T) {
		const objects, queries, moves = 10000, 10000, 100
		e, rng := benchEngine(objects, queries, Range)
		// Long warmup: grid cell slabs and answer sets keep growing toward
		// their high-water marks for tens of ticks under random churn.
		for i := 0; i < 100; i++ {
			stepChurn(e, rng, objects, moves, float64(i))
		}
		tick := 100
		avg := testing.AllocsPerRun(20, func() {
			stepChurn(e, rng, objects, moves, float64(tick))
			tick++
		})
		const budget = 50
		t.Logf("steady-state Step: %.1f allocs/tick (budget %d)", avg, budget)
		if avg > budget {
			t.Errorf("steady-state Step allocates %.1f times per tick; budget is %d", avg, budget)
		}
	})
}
