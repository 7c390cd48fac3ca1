// Package bench implements the measurement harnesses that regenerate the
// paper's evaluation (Figure 5) and the ablation experiments documented
// in DESIGN.md. The same code backs the cqp-bench command and the root
// bench_test.go benchmarks, so the tables in EXPERIMENTS.md and the
// testing.B numbers come from one implementation.
package bench

import (
	"time"

	"cqp/internal/baseline/qindex"
	"cqp/internal/baseline/snapshot"
	"cqp/internal/baseline/vci"
	"cqp/internal/core"
	"cqp/internal/gen"
	"cqp/internal/geo"
	"cqp/internal/roadnet"
	"cqp/internal/wire"
)

// Fig5Config parameterizes the paper's Figure 5 experiment: a
// network-based workload of moving objects and moving square queries,
// evaluated every DT seconds, measuring the bytes the server would
// transmit per evaluation under (a) the incremental update stream and
// (b) complete-answer retransmission.
type Fig5Config struct {
	Objects   int     // moving object population (paper: 100K)
	Queries   int     // moving query population (paper: 100K)
	GridN     int     // grid cells per axis
	QuerySide float64 // query square side (paper: 0.01–0.04)
	Rate      float64 // fraction of objects moving+reporting per period (paper Fig 5a x-axis)
	QueryRate float64 // fraction of queries moving+reporting per period (defaults to 0.3)
	Ticks     int     // measured evaluation periods
	Warmup    int     // unmeasured leading periods
	DT        float64 // seconds per period (paper: 5)
	Seed      int64
}

// WithDefaults fills the zero fields with the laptop-scale defaults used
// throughout EXPERIMENTS.md (the paper scale is reachable with
// cqp-bench -paper-scale).
func (c Fig5Config) WithDefaults() Fig5Config {
	if c.Objects == 0 {
		c.Objects = 20000
	}
	if c.Queries == 0 {
		c.Queries = 20000
	}
	if c.GridN == 0 {
		c.GridN = 64
	}
	if c.QuerySide == 0 {
		c.QuerySide = 0.01
	}
	if c.Rate == 0 {
		c.Rate = 0.3
	}
	if c.QueryRate == 0 {
		c.QueryRate = 0.3
	}
	if c.Ticks == 0 {
		c.Ticks = 10
	}
	if c.Warmup == 0 {
		c.Warmup = 3
	}
	if c.DT == 0 {
		c.DT = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig5Result is one point of Figure 5: the average per-evaluation answer
// traffic under the two strategies.
type Fig5Result struct {
	IncrementalKB float64 // avg KB/evaluation of the update stream
	CompleteKB    float64 // avg KB/evaluation of complete answers
	Updates       float64 // avg update tuples/evaluation
	AnswerTuples  float64 // avg total answer cardinality
	StepMillis    float64 // avg engine Step wall time
}

// scatter spreads freshly created populations along the road edges:
// travelers start exactly on intersections, which would otherwise inflate
// initial query answers with co-located clusters.
func scatter(wl *gen.Workload) {
	wl.World.Advance(3600)
	wl.Queries.Advance(3600)
}

// RunFig5Point measures one configuration point.
func RunFig5Point(cfg Fig5Config) Fig5Result {
	cfg = cfg.WithDefaults()
	net := roadnet.Generate(roadnet.Config{Seed: cfg.Seed})
	world := gen.MustNewWorld(gen.Config{Net: net, NumObjects: cfg.Objects, Seed: cfg.Seed})
	wl := gen.NewWorkload(world, cfg.Queries, cfg.QuerySide, cfg.Seed)
	scatter(wl)

	engine := core.MustNewEngine(core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN})
	wl.Bootstrap(engine)
	engine.Step(world.Now())
	for i := 0; i < cfg.Warmup; i++ {
		wl.Tick(engine, cfg.DT, cfg.Rate, cfg.QueryRate)
		engine.Step(world.Now())
	}

	var res Fig5Result
	for i := 0; i < cfg.Ticks; i++ {
		wl.Tick(engine, cfg.DT, cfg.Rate, cfg.QueryRate)
		start := time.Now()
		updates := engine.Step(world.Now())
		res.StepMillis += float64(time.Since(start).Microseconds()) / 1000

		res.Updates += float64(len(updates))
		res.IncrementalKB += float64(wire.EncodedSize(wire.UpdateBatch{Updates: updates})) / 1024

		// What the naive server would send instead: every query's complete
		// answer, every period.
		for j := 0; j < cfg.Queries; j++ {
			ans, _ := engine.Answer(core.QueryID(j + 1))
			res.AnswerTuples += float64(len(ans))
			res.CompleteKB += float64(wire.EncodedSize(wire.FullAnswer{
				Query: core.QueryID(j + 1), Objects: ans,
			})) / 1024
		}
	}
	n := float64(cfg.Ticks)
	res.IncrementalKB /= n
	res.CompleteKB /= n
	res.Updates /= n
	res.AnswerTuples /= n
	res.StepMillis /= n
	return res
}

// --- Ablation 1 & 2 & 4: evaluation-strategy CPU comparison --------------

// StrategyResult compares engine strategies on one identical workload.
type StrategyResult struct {
	IncrementalMillis float64 // shared incremental engine, avg Step ms
	SnapshotMillis    float64 // snapshot re-evaluation baseline, avg Step ms
	QIndexMillis      float64 // Q-index baseline (stationary queries only); 0 if skipped
	VCIMillis         float64 // velocity-constrained index baseline (stationary queries only); 0 if skipped
}

// RunStrategyComparison drives the incremental engine, the snapshot
// baseline, and (when stationaryQueries is true) the Q-index baseline
// with an identical report stream and returns average per-evaluation CPU
// times.
func RunStrategyComparison(cfg Fig5Config, stationaryQueries bool) StrategyResult {
	cfg = cfg.WithDefaults()
	net := roadnet.Generate(roadnet.Config{Seed: cfg.Seed})
	world := gen.MustNewWorld(gen.Config{Net: net, NumObjects: cfg.Objects, Seed: cfg.Seed})
	wl := gen.NewWorkload(world, cfg.Queries, cfg.QuerySide, cfg.Seed)
	scatter(wl)

	inc := core.MustNewEngine(core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN})
	snap, err := snapshot.New(core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN})
	if err != nil {
		panic(err)
	}
	var qi *qindex.Engine
	var vc *vci.Engine
	if stationaryQueries {
		qi = qindex.New()
		// Speed bound: the network's fastest class; rebuild every 12
		// evaluation periods.
		vc = vci.New(net.Speed(roadnet.Highway), 12*cfg.DT)
	}

	sinks := []gen.Sink{inc, snap}
	if qi != nil {
		sinks = append(sinks, qi, vc)
	}
	fan := fanout{sinks}
	wl.Bootstrap(fan)
	queryRate := cfg.QueryRate
	if stationaryQueries {
		queryRate = 0 // Q-index cannot move queries; keep the comparison fair
	}
	inc.Step(world.Now())
	snap.Step(world.Now())
	if qi != nil {
		qi.Step(world.Now())
		vc.Step(world.Now())
	}

	var res StrategyResult
	for i := 0; i < cfg.Ticks; i++ {
		wl.Tick(fan, cfg.DT, cfg.Rate, queryRate)
		now := world.Now()

		start := time.Now()
		inc.Step(now)
		res.IncrementalMillis += msSince(start)

		start = time.Now()
		snap.Step(now)
		res.SnapshotMillis += msSince(start)

		if qi != nil {
			start = time.Now()
			qi.Step(now)
			res.QIndexMillis += msSince(start)

			start = time.Now()
			vc.Step(now)
			res.VCIMillis += msSince(start)
		}
	}
	n := float64(cfg.Ticks)
	res.IncrementalMillis /= n
	res.SnapshotMillis /= n
	res.QIndexMillis /= n
	res.VCIMillis /= n
	return res
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// fanout duplicates reports to several engines.
type fanout struct {
	sinks []gen.Sink
}

func (f fanout) ReportObject(u core.ObjectUpdate) {
	for _, s := range f.sinks {
		s.ReportObject(u)
	}
}

func (f fanout) ReportQuery(u core.QueryUpdate) {
	for _, s := range f.sinks {
		s.ReportQuery(u)
	}
}

// --- Ablation 3: grid granularity -----------------------------------------

// RunGridSweep returns the average Step time for each grid size.
func RunGridSweep(cfg Fig5Config, gridSizes []int) []float64 {
	cfg = cfg.WithDefaults()
	out := make([]float64, len(gridSizes))
	for i, n := range gridSizes {
		c := cfg
		c.GridN = n
		out[i] = RunFig5Point(c).StepMillis
	}
	return out
}

// --- Ablation 5: recovery traffic ----------------------------------------

// RecoveryResult compares the bytes needed to resynchronize an
// out-of-sync client by incremental diff versus complete-answer resend.
type RecoveryResult struct {
	MissedTicks int
	DiffKB      float64
	FullKB      float64
	DiffTuples  int
	AnswerSize  int
}

// RunRecovery simulates one query subscribed over a Figure-5 workload,
// disconnects it for missedTicks evaluations, and measures both recovery
// payloads.
func RunRecovery(cfg Fig5Config, missedTicksList []int) []RecoveryResult {
	cfg = cfg.WithDefaults()
	out := make([]RecoveryResult, 0, len(missedTicksList))
	for _, missed := range missedTicksList {
		net := roadnet.Generate(roadnet.Config{Seed: cfg.Seed})
		world := gen.MustNewWorld(gen.Config{Net: net, NumObjects: cfg.Objects, Seed: cfg.Seed})
		wl := gen.NewWorkload(world, cfg.Queries, cfg.QuerySide, cfg.Seed)
		scatter(wl)
		engine := core.MustNewEngine(core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN})
		wl.Bootstrap(engine)
		engine.Step(world.Now())

		const q = core.QueryID(1)
		engine.Commit(q)
		for i := 0; i < missed; i++ {
			wl.Tick(engine, cfg.DT, cfg.Rate, cfg.QueryRate)
			engine.Step(world.Now())
		}
		diff, _ := engine.Recover(q)
		ans, _ := engine.Answer(q)
		out = append(out, RecoveryResult{
			MissedTicks: missed,
			DiffKB:      float64(wire.EncodedSize(wire.RecoveryDiff{Updates: diff})) / 1024,
			FullKB:      float64(wire.EncodedSize(wire.FullAnswer{Query: q, Objects: ans})) / 1024,
			DiffTuples:  len(diff),
			AnswerSize:  len(ans),
		})
	}
	return out
}

// --- Ablation 6: bulk vs per-report processing -----------------------------

// BulkResult compares processing an identical report stream in one bulk
// Step against one Step per report.
type BulkResult struct {
	BatchSize  int
	BulkMillis float64 // one Step for the whole batch
	OneByOneMS float64 // one Step per report
}

// RunBulk measures the bulk-processing advantage for several batch sizes.
func RunBulk(cfg Fig5Config, batchSizes []int) []BulkResult {
	cfg = cfg.WithDefaults()
	out := make([]BulkResult, 0, len(batchSizes))
	for _, bs := range batchSizes {
		out = append(out, runBulkPoint(cfg, bs))
	}
	return out
}

func runBulkPoint(cfg Fig5Config, batchSize int) BulkResult {
	build := func() (*core.Engine, *gen.Workload, *gen.World) {
		net := roadnet.Generate(roadnet.Config{Seed: cfg.Seed})
		world := gen.MustNewWorld(gen.Config{Net: net, NumObjects: cfg.Objects, Seed: cfg.Seed})
		wl := gen.NewWorkload(world, cfg.Queries, cfg.QuerySide, cfg.Seed)
		scatter(wl)
		e := core.MustNewEngine(core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN})
		wl.Bootstrap(e)
		e.Step(world.Now())
		return e, wl, world
	}

	// Collect an identical stream of reports.
	e1, wl, world := build()
	var reports []core.ObjectUpdate
	rec := &recorder{}
	wl.Tick(rec, cfg.DT, cfg.Rate, 0)
	reports = rec.objs
	if len(reports) > batchSize {
		reports = reports[:batchSize]
	}

	// Bulk: one Step.
	start := time.Now()
	for _, u := range reports {
		e1.ReportObject(u)
	}
	e1.Step(world.Now())
	bulk := msSince(start)

	// One by one: a Step per report.
	e2, _, world2 := build()
	start = time.Now()
	for _, u := range reports {
		e2.ReportObject(u)
		e2.Step(world2.Now())
	}
	single := msSince(start)

	return BulkResult{BatchSize: len(reports), BulkMillis: bulk, OneByOneMS: single}
}

type recorder struct {
	objs []core.ObjectUpdate
	qrys []core.QueryUpdate
}

func (r *recorder) ReportObject(u core.ObjectUpdate) { r.objs = append(r.objs, u) }
func (r *recorder) ReportQuery(u core.QueryUpdate)   { r.qrys = append(r.qrys, u) }
