// Benchmarks regenerating the paper's evaluation (Figure 5a/5b) and the
// ablation experiments documented in DESIGN.md. Each benchmark prints the
// measured quantities as custom metrics (KB/evaluation, ratios, ms/step)
// so that `go test -bench=. -benchmem` reproduces the tables recorded in
// EXPERIMENTS.md. The cqp-bench command runs the same harnesses at larger
// scale with pretty-printed rows.
//
// Benchmark scale is deliberately below the paper's 100K×100K so the
// whole suite runs in minutes; the shapes (who wins, growth direction,
// crossovers) are scale-stable, and `cqp-bench -paper-scale` reproduces
// the full-size run.
package cqp_test

import (
	"fmt"
	"testing"

	"cqp/internal/bench"
)

// benchScale keeps the testing.B workloads laptop-sized. Under -short
// (the CI bench-smoke job) it shrinks further to a compile-and-run
// guard: every harness executes, none dominates the job's wall clock.
func benchScale() bench.Fig5Config {
	cfg := bench.Fig5Config{
		Objects: 4000,
		Queries: 4000,
		Ticks:   3,
		Seed:    1,
	}
	if testing.Short() {
		cfg.Objects, cfg.Queries, cfg.Ticks = 500, 500, 1
	}
	return cfg.WithDefaults()
}

// BenchmarkFig5aAnswerSize reproduces Figure 5(a): the per-evaluation
// answer traffic of the incremental stream versus complete-answer
// retransmission as the object update rate sweeps 10%–100%.
func BenchmarkFig5aAnswerSize(b *testing.B) {
	for _, rate := range []float64{0.1, 0.3, 0.5, 0.7, 1.0} {
		b.Run(fmt.Sprintf("rate=%.0f%%", rate*100), func(b *testing.B) {
			cfg := benchScale()
			cfg.Rate = rate
			b.ReportAllocs()
			var r bench.Fig5Result
			for i := 0; i < b.N; i++ {
				r = bench.RunFig5Point(cfg)
			}
			b.ReportMetric(r.IncrementalKB, "incKB/eval")
			b.ReportMetric(r.CompleteKB, "compKB/eval")
			b.ReportMetric(100*r.IncrementalKB/r.CompleteKB, "inc/comp-%")
		})
	}
}

// BenchmarkFig5bAnswerSize reproduces Figure 5(b): answer traffic as the
// query side length sweeps 0.01–0.04 at a fixed 30% update rate.
func BenchmarkFig5bAnswerSize(b *testing.B) {
	for _, side := range []float64{0.01, 0.02, 0.03, 0.04} {
		b.Run(fmt.Sprintf("side=%.3f", side), func(b *testing.B) {
			cfg := benchScale()
			cfg.QuerySide = side
			b.ReportAllocs()
			var r bench.Fig5Result
			for i := 0; i < b.N; i++ {
				r = bench.RunFig5Point(cfg)
			}
			b.ReportMetric(r.IncrementalKB, "incKB/eval")
			b.ReportMetric(r.CompleteKB, "compKB/eval")
			b.ReportMetric(100*r.IncrementalKB/r.CompleteKB, "inc/comp-%")
		})
	}
}

// BenchmarkAblationShared measures Ablation 1/2: CPU per evaluation of
// the shared incremental engine against snapshot re-evaluation as the
// number of concurrent queries grows.
func BenchmarkAblationShared(b *testing.B) {
	for _, q := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("queries=%d", q), func(b *testing.B) {
			cfg := benchScale()
			cfg.Queries = q
			b.ReportAllocs()
			var r bench.StrategyResult
			for i := 0; i < b.N; i++ {
				r = bench.RunStrategyComparison(cfg)
			}
			b.ReportMetric(r.IncrementalMillis, "inc-ms/eval")
			b.ReportMetric(r.SnapshotMillis, "snap-ms/eval")
			b.ReportMetric(r.SnapshotMillis/r.IncrementalMillis, "speedup")
		})
	}
}

// BenchmarkAblationGridSize measures Ablation 3: evaluation cost across
// grid granularities.
func BenchmarkAblationGridSize(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("grid=%dx%d", n, n), func(b *testing.B) {
			cfg := benchScale()
			cfg.GridN = n
			b.ReportAllocs()
			var r bench.Fig5Result
			for i := 0; i < b.N; i++ {
				r = bench.RunFig5Point(cfg)
			}
			b.ReportMetric(r.StepMillis, "ms/eval")
		})
	}
}

// BenchmarkAblationRecovery measures Ablation 5: the traffic of
// incremental out-of-sync recovery against a complete-answer resend for
// increasing disconnection lengths.
func BenchmarkAblationRecovery(b *testing.B) {
	cfg := benchScale()
	cfg.Queries = 1000
	b.ReportAllocs()
	var rs []bench.RecoveryResult
	for i := 0; i < b.N; i++ {
		rs = bench.RunRecovery(cfg, []int{1, 10, 50})
	}
	for _, r := range rs {
		b.ReportMetric(r.DiffKB*1024, fmt.Sprintf("diffB@%d", r.MissedTicks))
		b.ReportMetric(r.FullKB*1024, fmt.Sprintf("fullB@%d", r.MissedTicks))
	}
}

// BenchmarkAblationPredictive measures Ablation 7: the answer traffic of
// predictive range queries under the incremental stream against
// complete-answer re-evaluation.
func BenchmarkAblationPredictive(b *testing.B) {
	cfg := benchScale()
	b.ReportAllocs()
	var r bench.Fig5Result
	for i := 0; i < b.N; i++ {
		r = bench.RunPredictivePoint(cfg)
	}
	b.ReportMetric(r.IncrementalKB, "incKB/eval")
	b.ReportMetric(r.CompleteKB, "compKB/eval")
}

// BenchmarkAblationBulk measures Ablation 6: bulk batch evaluation
// against one evaluation per report.
func BenchmarkAblationBulk(b *testing.B) {
	cfg := benchScale()
	b.ReportAllocs()
	var rs []bench.BulkResult
	for i := 0; i < b.N; i++ {
		rs = bench.RunBulk(cfg, []int{1000})
	}
	for _, r := range rs {
		b.ReportMetric(r.BulkMillis, "bulk-ms")
		b.ReportMetric(r.OneByOneMS, "single-ms")
		b.ReportMetric(r.OneByOneMS/r.BulkMillis, "speedup")
	}
}
