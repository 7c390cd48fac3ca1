package bench

import (
	"sync"

	"cqp/internal/core"
	"cqp/internal/shard"
)

// pinnedConfig is the seeded Figure 5 point of the pinned tests. Its
// road-network world takes most of their set-up to build, so every
// script they replay is recorded from one world, in the fixed order of
// pinnedScripts: a script depends on what was recorded before it.
var pinnedConfig = Fig5Config{
	Objects: 2000, Queries: 2000, GridN: 32, QuerySide: 0.04,
	Rate: 0.3, QueryRate: 0.3, Ticks: 5, Warmup: 1, DT: 5, Seed: 1,
}

// fig5Point is one pinned Figure 5 point: a query side and an object
// update rate.
type fig5Point struct{ side, rate float64 }

// pinnedSides and pinnedRates span Figure 5(b) and 5(a).
var (
	pinnedSides = []float64{0.01, 0.04}
	pinnedRates = []float64{0.1, 0.3, 1.0}
)

type pinned struct {
	ledger     *Script // TestWorkLedgerPinned's, recorded first
	fig5       map[fig5Point]*Script
	predictive *Script
}

var pinnedScripts = sync.OnceValue(func() *pinned {
	cfg := pinnedConfig
	wl := NewFig5Workload(cfg)
	p := &pinned{fig5: make(map[fig5Point]*Script)}

	// Figure 5 has only range queries; stationary kNN queries at the
	// first query centres put phases 3 and 4's kNN work in the ledger.
	const knnQueries = 200
	var knn []core.QueryUpdate
	for j := 0; j < knnQueries; j++ {
		focal, _ := wl.Queries.Object(j)
		knn = append(knn, core.QueryUpdate{ID: core.QueryID(cfg.Queries + 1 + j), Kind: core.KNN, Focal: focal, K: 8})
	}
	p.ledger = RecordFig5(wl, cfg)
	p.ledger.Steps[0].Qrys = append(p.ledger.Steps[0].Qrys, knn...)

	cfg.Ticks = 4
	for _, side := range pinnedSides {
		for _, rate := range pinnedRates {
			c := cfg
			c.QuerySide, c.Rate = side, rate
			p.fig5[fig5Point{side, rate}] = RecordFig5(wl, c)
		}
	}
	p.predictive = RecordPredictive(wl, cfg)
	return p
})

// pinnedProcessors are the processors every pinned script runs through.
var pinnedProcessors = []struct {
	name string
	f    Factory
}{
	{"core.Engine", EngineFactory},
	{"shard.NewN(opt, 4)", tilesFactory(4)},
	{"core.NewProtocol(core.Engine)", func(opt core.Options) (core.Processor, func()) {
		return core.NewProtocol(core.MustNewEngine(opt)), func() {}
	}},
}

// tilesFactory builds the n-tile router.
func tilesFactory(n int) Factory {
	return func(opt core.Options) (core.Processor, func()) {
		sh, err := shard.NewN(opt, n)
		if err != nil {
			panic(err)
		}
		return sh, func() { sh.Close() }
	}
}
