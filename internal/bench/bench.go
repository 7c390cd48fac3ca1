// Package bench implements the measurement harnesses that regenerate the
// paper's evaluation (Figure 5) and the ablation experiments documented
// in DESIGN.md, all by replaying a recorded Script. The cqp-bench
// command prints their tables, which EXPERIMENTS.md records.
package bench

import (
	"slices"
	"time"

	"cqp/internal/baseline/snapshot"
	"cqp/internal/core"
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

	// Exact byte totals over the measured evaluations.
	IncrementalBytes, CompleteBytes int64
}

// RunFig5Point measures one configuration point on one core.Engine.
func RunFig5Point(cfg Fig5Config) Fig5Result {
	return RunFig5(RecordFig5(NewFig5Workload(cfg), cfg), EngineFactory)
}

// per returns r's sums averaged over ticks evaluations.
func (r Fig5Result) per(ticks int) Fig5Result {
	n := float64(ticks)
	return Fig5Result{
		IncrementalKB: r.IncrementalKB / n,
		CompleteKB:    r.CompleteKB / n,
		Updates:       r.Updates / n,
		AnswerTuples:  r.AnswerTuples / n,
		StepMillis:    r.StepMillis / n,

		IncrementalBytes: r.IncrementalBytes,
		CompleteBytes:    r.CompleteBytes,
	}
}

// --- Ablation 1 & 2: evaluation-strategy CPU comparison -----------------

// StrategyResult compares engine strategies on one identical workload.
type StrategyResult struct {
	IncrementalMillis float64 // shared incremental engine, avg Step ms
	SnapshotMillis    float64 // snapshot re-evaluation baseline, avg Step ms
}

// RunStrategyComparison replays cfg's Figure 5 script through the
// incremental engine and the snapshot baseline, step by step, and
// returns each one's average Step time after the warm-up.
func RunStrategyComparison(cfg Fig5Config) StrategyResult {
	s := RecordFig5(NewFig5Workload(cfg), cfg)
	inc := core.MustNewEngine(s.Opt)
	snap, err := snapshot.New(s.Opt)
	if err != nil {
		panic(err)
	}
	var (
		res     StrategyResult
		updates []core.Update
	)
	for i := range s.Steps {
		b := &s.Steps[i]
		b.Report(inc)
		b.Report(snap)
		start := time.Now()
		updates = inc.StepAppend(updates[:0], b.Now)
		incMs := msSince(start)
		start = time.Now()
		snap.Step(b.Now)
		snapMs := msSince(start)
		if i > s.Warmup {
			res.IncrementalMillis += incMs
			res.SnapshotMillis += snapMs
		}
	}
	n := float64(len(s.Steps) - 1 - s.Warmup)
	res.IncrementalMillis /= n
	res.SnapshotMillis /= n
	return res
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
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
	// The recovery replays the periods right after the bootstrap; the
	// recorded warm-up periods are the first of them.
	if len(missedTicksList) == 0 {
		return nil
	}
	cfg.Ticks = slices.Max(missedTicksList)
	return RunRecoveryScript(RecordFig5(NewFig5Workload(cfg), cfg), EngineFactory, missedTicksList)
}

// --- Ablation 6: bulk vs per-report processing -----------------------------

// BulkResult compares processing an identical report stream in one bulk
// Step against one Step per report.
type BulkResult struct {
	BatchSize  int
	BulkMillis float64 // one Step for the whole batch
	OneByOneMS float64 // one Step per report
}

// RunBulk measures the bulk-processing advantage for several batch
// sizes. A batch is the first object reports of cfg's first measured
// period; a size larger than that period's reports is skipped.
func RunBulk(cfg Fig5Config, batchSizes []int) []BulkResult {
	s := RecordFig5(NewFig5Workload(cfg), cfg)
	var out []BulkResult
	for _, bs := range batchSizes {
		if bs <= len(s.Steps[s.Warmup+1].Objs) {
			r, _, _ := runBulkPoint(s, bs)
			out = append(out, r)
		}
	}
	return out
}

// runBulkPoint replays s's bootstrap and warm-up on two engines, then
// hands the first batchSize object reports of the next period to one in
// a single Step and to the other a Step per report. It returns both
// engines, whose answers must agree.
func runBulkPoint(s *Script, batchSize int) (BulkResult, *core.Engine, *core.Engine) {
	setUp := func() *core.Engine {
		e := core.MustNewEngine(s.Opt)
		for _, b := range s.Steps[:s.Warmup+1] {
			b.Report(e)
			e.Step(b.Now)
		}
		return e
	}
	batch := s.Steps[s.Warmup+1]
	reports := batch.Objs[:batchSize]

	bulk := setUp()
	start := time.Now()
	for _, u := range reports {
		bulk.ReportObject(u)
	}
	bulk.Step(batch.Now)
	bulkMs := msSince(start)

	single := setUp()
	start = time.Now()
	for _, u := range reports {
		single.ReportObject(u)
		single.Step(batch.Now)
	}
	singleMs := msSince(start)

	return BulkResult{BatchSize: batchSize, BulkMillis: bulkMs, OneByOneMS: singleMs}, bulk, single
}
