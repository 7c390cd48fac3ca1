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
func benchShard(tb testing.TB, tiles int) (*Engine, *rand.Rand, int) {
	objects, queries := 10000, 2000
	if testing.Short() {
		objects, queries = 1000, 200
	}
	rows, cols := Split(tiles)
	e := MustNew(Options{
		Core: core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 64, PredictiveHorizon: 100},
		Rows: rows,
		Cols: cols,
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
	e, rng, objects := benchShard(b, 4)
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
	e, rng, objects := benchShard(t, 4)
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

// BenchmarkShardStepHotspot measures one step of a skewed population:
// 75 % of objects and queries are placed Gaussian (σ 0.06) around
// (0.15, 0.15), the rest uniformly, and 30 % of each report a local
// random-walk move (σ 0.005) per step. It runs the same script through
// one core.Engine and through routers of 4 and 16 tiles, so the rows
// show what splitting the work (the engine's helpers) and splitting the
// space (the tiles) each make of the hotspot. Each arm warms up 64
// steps outside the timer; report generation is untimed too. -short
// shrinks the population from 20K × 20K to 2K × 2K so the CI bench
// smoke stays cheap.
func BenchmarkShardStepHotspot(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	opt := core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 64}
	for _, arm := range []struct {
		name string
		proc func() core.Processor
	}{
		{"engine", func() core.Processor { return core.MustNewEngine(opt) }},
		{"tiles4", func() core.Processor { return MustNew(Options{Core: opt, Rows: 2, Cols: 2}) }},
		{"tiles16", func() core.Processor { return MustNew(Options{Core: opt, Rows: 4, Cols: 4}) }},
	} {
		b.Run(arm.name, func(b *testing.B) {
			p := arm.proc()
			if e, ok := p.(*Engine); ok {
				b.Cleanup(func() { e.Close() })
			}
			w := newHotspotWalk(n)
			w.bootstrap(p)
			var buf []core.Update
			for i := 0; i < 64; i++ {
				w.tick()
				w.report(p)
				buf = p.StepAppend(buf[:0], w.now)
			}
			updates := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w.tick()
				b.StartTimer()
				w.report(p)
				buf = p.StepAppend(buf[:0], w.now)
				updates += len(buf)
			}
			b.ReportMetric(float64(updates)/float64(b.N), "updates/op")
		})
	}
}

// hotspotWalk is BenchmarkShardStepHotspot's script: n objects and n
// range queries of side 0.01, each step's reports generated into
// slices so they can be drawn outside the timer.
type hotspotWalk struct {
	rng        *rand.Rand
	objs, qrys []geo.Point
	now        float64
	objBuf     []core.ObjectUpdate
	qryBuf     []core.QueryUpdate
}

func newHotspotWalk(n int) *hotspotWalk {
	w := &hotspotWalk{rng: rand.New(rand.NewSource(1)), objs: make([]geo.Point, n), qrys: make([]geo.Point, n)}
	for i := range w.objs {
		w.objs[i] = w.place()
	}
	for j := range w.qrys {
		w.qrys[j] = w.place()
	}
	return w
}

// place draws one placement: Gaussian around the hotspot with
// probability 0.75, uniform otherwise.
func (w *hotspotWalk) place() geo.Point {
	if w.rng.Float64() < 0.75 {
		return clamp01(geo.Pt(0.15+0.06*w.rng.NormFloat64(), 0.15+0.06*w.rng.NormFloat64()))
	}
	return geo.Pt(w.rng.Float64(), w.rng.Float64())
}

func clamp01(p geo.Point) geo.Point {
	p.X = min(max(p.X, 0), 1)
	p.Y = min(max(p.Y, 0), 1)
	return p
}

func (w *hotspotWalk) objectUpdate(i int) core.ObjectUpdate {
	return core.ObjectUpdate{ID: core.ObjectID(i + 1), Kind: core.Moving, Loc: w.objs[i], T: w.now}
}

func (w *hotspotWalk) queryUpdate(j int) core.QueryUpdate {
	return core.QueryUpdate{ID: core.QueryID(j + 1), Kind: core.Range, Region: geo.RectAt(w.qrys[j], 0.01), T: w.now}
}

// bootstrap registers every object and query and runs the first step.
func (w *hotspotWalk) bootstrap(p core.Processor) {
	for i := range w.objs {
		p.ReportObject(w.objectUpdate(i))
	}
	for j := range w.qrys {
		p.ReportQuery(w.queryUpdate(j))
	}
	p.Step(w.now)
}

// tick advances the clock and moves 30 % of the objects and 30 % of
// the queries by one random-walk step, buffering their reports.
func (w *hotspotWalk) tick() {
	w.now++
	w.objBuf, w.qryBuf = w.objBuf[:0], w.qryBuf[:0]
	for i := range w.objs {
		if w.rng.Float64() < 0.3 {
			w.objs[i] = w.walk(w.objs[i])
			w.objBuf = append(w.objBuf, w.objectUpdate(i))
		}
	}
	for j := range w.qrys {
		if w.rng.Float64() < 0.3 {
			w.qrys[j] = w.walk(w.qrys[j])
			w.qryBuf = append(w.qryBuf, w.queryUpdate(j))
		}
	}
}

func (w *hotspotWalk) walk(p geo.Point) geo.Point {
	return clamp01(geo.Pt(p.X+0.005*w.rng.NormFloat64(), p.Y+0.005*w.rng.NormFloat64()))
}

// report feeds the buffered reports of the last tick to p.
func (w *hotspotWalk) report(p core.Processor) {
	for _, u := range w.objBuf {
		p.ReportObject(u)
	}
	for _, u := range w.qryBuf {
		p.ReportQuery(u)
	}
}
