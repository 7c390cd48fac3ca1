package bench

import (
	"cqp/internal/core"
	"cqp/internal/gen"
	"cqp/internal/geo"
	"cqp/internal/roadnet"
)

// RunPredictivePoint measures one point of Ablation 7: RunFig5Point's
// two answer-traffic strategies for predictive range queries. Objects
// report location + velocity from the road-network world; the moving
// queries' windows look windowAhead..windowAhead+windowLen seconds into
// the future. The complete-answer column is what a re-evaluating server
// (a TPR-tree, say) ships every period.
func RunPredictivePoint(cfg Fig5Config) Fig5Result {
	cfg = cfg.WithDefaults()
	const (
		horizon     = 200.0
		windowAhead = 10.0
		windowLen   = 50.0
	)
	net := roadnet.Generate(roadnet.Config{Seed: cfg.Seed})
	world := gen.MustNewWorld(gen.Config{Net: net, NumObjects: cfg.Objects, Seed: cfg.Seed})
	wl := gen.NewWorkload(world, cfg.Queries, cfg.QuerySide, cfg.Seed)
	scatter(wl)

	engine := core.MustNewEngine(core.Options{
		Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN, PredictiveHorizon: horizon,
	})
	reportObject := func(i int, now float64) {
		loc, vel := world.Object(i)
		engine.ReportObject(core.ObjectUpdate{
			ID: core.ObjectID(i + 1), Kind: core.Predictive, Loc: loc, Vel: vel, T: now,
		})
	}
	reportQuery := func(j int, now float64) {
		engine.ReportQuery(core.QueryUpdate{
			ID: core.QueryID(j + 1), Kind: core.PredictiveRange,
			Region: wl.QueryRegion(j),
			T1:     now + windowAhead, T2: now + windowAhead + windowLen,
			T: now,
		})
	}
	// tick advances one period and reports the movers: cfg.Rate of
	// objects change course (move + new velocity), cfg.QueryRate of
	// queries move and slide their windows.
	tick := func() float64 {
		world.AdvanceClock(cfg.DT)
		wl.Queries.AdvanceClock(cfg.DT)
		now := world.Now()
		for i := 0; i < cfg.Objects; i++ {
			if float64(i%100)/100 < cfg.Rate {
				world.AdvanceObject(i, cfg.DT)
				reportObject(i, now)
			}
		}
		for j := 0; j < cfg.Queries; j++ {
			if float64(j%100)/100 < cfg.QueryRate {
				wl.Queries.AdvanceObject(j, cfg.DT)
				reportQuery(j, now)
			}
		}
		return now
	}

	// Bootstrap the full population.
	now := world.Now()
	for i := 0; i < cfg.Objects; i++ {
		reportObject(i, now)
	}
	for j := 0; j < cfg.Queries; j++ {
		reportQuery(j, now)
	}
	engine.Step(now)
	for i := 0; i < cfg.Warmup; i++ {
		engine.Step(tick())
	}

	var res Fig5Result
	for i := 0; i < cfg.Ticks; i++ {
		res.measureStep(engine, tick(), cfg.Queries)
	}
	return res.per(cfg.Ticks)
}
