package bench

import (
	"cqp/internal/core"
	"cqp/internal/gen"
	"cqp/internal/geo"
)

// RunPredictivePoint measures one point of Ablation 7: RunFig5Point's
// two answer-traffic strategies for predictive range queries. Objects
// report location + velocity from the road-network world; the moving
// queries' windows look windowAhead..windowAhead+windowLen seconds into
// the future. The complete-answer column is what a re-evaluating server
// (a TPR-tree, say) ships every period.
func RunPredictivePoint(cfg Fig5Config) Fig5Result {
	return RunFig5(RecordPredictive(NewFig5Workload(cfg), cfg), EngineFactory)
}

// RecordPredictive records RunPredictivePoint's script from wl's
// current state; see RecordFig5.
func RecordPredictive(wl *gen.Workload, cfg Fig5Config) *Script {
	cfg = cfg.WithDefaults()
	const (
		horizon     = 200.0
		windowAhead = 10.0
		windowLen   = 50.0
	)
	world := wl.World
	wl.QuerySide = cfg.QuerySide
	s := &Script{
		Opt:     core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN, PredictiveHorizon: horizon},
		Queries: wl.NumQueries,
		Warmup:  cfg.Warmup,
	}
	reportObject := func(b *Batch, i int, now float64) {
		loc, vel := world.Object(i)
		b.ReportObject(core.ObjectUpdate{
			ID: core.ObjectID(i + 1), Kind: core.Predictive, Loc: loc, Vel: vel, T: now,
		})
	}
	reportQuery := func(b *Batch, j int, now float64) {
		b.ReportQuery(core.QueryUpdate{
			ID: core.QueryID(j + 1), Kind: core.PredictiveRange,
			Region: wl.QueryRegion(j),
			T1:     now + windowAhead, T2: now + windowAhead + windowLen,
			T: now,
		})
	}

	// The bootstrap reports the full population.
	boot := Batch{Now: world.Now()}
	for i := 0; i < world.NumObjects(); i++ {
		reportObject(&boot, i, boot.Now)
	}
	for j := 0; j < wl.NumQueries; j++ {
		reportQuery(&boot, j, boot.Now)
	}
	s.Steps = append(s.Steps, boot)

	// Each period cfg.Rate of objects change course (move + new
	// velocity), and cfg.QueryRate of queries move and slide their
	// windows.
	for t := 0; t < cfg.Warmup+cfg.Ticks; t++ {
		world.AdvanceClock(cfg.DT)
		wl.Queries.AdvanceClock(cfg.DT)
		b := Batch{Now: world.Now()}
		for i := 0; i < world.NumObjects(); i++ {
			if float64(i%100)/100 < cfg.Rate {
				world.AdvanceObject(i, cfg.DT)
				reportObject(&b, i, b.Now)
			}
		}
		for j := 0; j < wl.NumQueries; j++ {
			if float64(j%100)/100 < cfg.QueryRate {
				wl.Queries.AdvanceObject(j, cfg.DT)
				reportQuery(&b, j, b.Now)
			}
		}
		s.Steps = append(s.Steps, b)
	}
	return s
}
