// Command cqp-bench regenerates the paper's evaluation tables and the
// ablation experiments from DESIGN.md, printing one row per measured
// point in the same shape the paper reports.
//
// Experiments:
//
//	fig5a      answer size vs. object update rate (paper Figure 5a)
//	fig5b      answer size vs. query side length (paper Figure 5b)
//	shared     shared incremental engine vs. snapshot re-evaluation CPU
//	recovery   out-of-sync diff recovery vs. full-answer resend
//	bulk       bulk vs. per-report processing
//	predictive predictive-query answer size vs. object update rate
//	all        everything above
//
// Performance claims about the whole pipeline cite the workloads and
// metrics of BENCHMARK.json (bash benchmark/run.sh), not these tables.
//
// Examples:
//
//	cqp-bench -exp fig5a
//	cqp-bench -exp all -objects 5000 -queries 5000
//	cqp-bench -exp fig5a -paper-scale     # 100K x 100K, as in the paper
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"cqp/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig5a|fig5b|shared|recovery|bulk|predictive|all")
		objects    = flag.Int("objects", 20000, "moving object population")
		queries    = flag.Int("queries", 20000, "moving query population")
		ticks      = flag.Int("ticks", 8, "measured evaluation periods per point")
		seed       = flag.Int64("seed", 1, "random seed")
		paperScale = flag.Bool("paper-scale", false, "use the paper's 100K objects x 100K queries")
	)
	flag.Parse()

	switch *exp {
	case "fig5a", "fig5b", "shared", "recovery", "bulk", "predictive", "all":
	default:
		fmt.Fprintf(os.Stderr, "cqp-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if *paperScale {
		*objects, *queries = 100000, 100000
	}
	base := bench.Fig5Config{
		Objects: *objects, Queries: *queries, Ticks: *ticks, Seed: *seed,
	}.WithDefaults()

	run := func(name string, fn func()) {
		if *exp == name || *exp == "all" {
			fn()
		}
	}
	fmt.Printf("workload: %d objects, %d queries, Δt=%.0fs, %d warm-up + %d measured ticks/point, seed %d\n",
		base.Objects, base.Queries, base.DT, base.Warmup, base.Ticks, base.Seed)
	fmt.Printf("machine: %s %s/%s, %d CPUs, GOMAXPROCS %d\n\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))

	run("fig5a", func() { fig5a(base) })
	run("fig5b", func() { fig5b(base) })
	run("shared", func() { shared(base) })
	run("recovery", func() { recovery(base) })
	run("bulk", func() { bulk(base) })
	run("predictive", func() { predictive(base) })
}

// fig5Row prints one answer-size row: its label, both answer sizes,
// their ratio and the step time.
func fig5Row(label string, r bench.Fig5Result) {
	fmt.Printf("%8s %14.1f %14.1f %7.1f%% %12.1f\n",
		label, r.IncrementalKB, r.CompleteKB, 100*r.IncrementalKB/r.CompleteKB, r.StepMillis)
}

func fig5a(base bench.Fig5Config) {
	fmt.Println("=== Figure 5(a): answer size vs. object update rate (query side 0.01) ===")
	fmt.Printf("%8s %14s %14s %8s %12s\n", "rate", "incr. KB", "complete KB", "ratio", "step ms")
	for _, rate := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		cfg := base
		cfg.Rate = rate
		cfg.QuerySide = 0.01
		fig5Row(fmt.Sprintf("%.0f%%", rate*100), bench.RunFig5Point(cfg))
	}
	fmt.Println()
}

func fig5b(base bench.Fig5Config) {
	fmt.Println("=== Figure 5(b): answer size vs. query side length (rate 30%) ===")
	fmt.Printf("%8s %14s %14s %8s %12s\n", "side", "incr. KB", "complete KB", "ratio", "step ms")
	for _, side := range []float64{0.01, 0.015, 0.02, 0.025, 0.03, 0.035, 0.04} {
		cfg := base
		cfg.Rate = 0.3
		cfg.QuerySide = side
		fig5Row(fmt.Sprintf("%.3f", side), bench.RunFig5Point(cfg))
	}
	fmt.Println()
}

func shared(base bench.Fig5Config) {
	fmt.Println("=== Ablation 1: shared incremental engine vs. snapshot re-evaluation (CPU) ===")
	fmt.Println("--- scalability in the number of concurrent queries (10% update rate) ---")
	fmt.Printf("%10s %16s %16s %9s\n", "queries", "incremental ms", "snapshot ms", "speedup")
	for _, q := range []int{1000, 2000, 5000, 10000, base.Queries} {
		cfg := base
		cfg.Queries = q
		cfg.Rate, cfg.QueryRate = 0.1, 0.1
		r := bench.RunStrategyComparison(cfg)
		fmt.Printf("%10d %16.1f %16.1f %8.1fx\n",
			q, r.IncrementalMillis, r.SnapshotMillis, r.SnapshotMillis/r.IncrementalMillis)
	}
	fmt.Println()
	fmt.Println("=== Ablation 2: CPU vs. update rate (cost of incremental evaluation is")
	fmt.Println("    proportional to change; re-evaluation is flat) ===")
	fmt.Printf("%8s %16s %16s %9s\n", "rate", "incremental ms", "snapshot ms", "speedup")
	for _, rate := range []float64{0.05, 0.1, 0.2, 0.3, 0.5, 1.0} {
		cfg := base
		cfg.Rate, cfg.QueryRate = rate, rate
		r := bench.RunStrategyComparison(cfg)
		fmt.Printf("%7.0f%% %16.1f %16.1f %8.1fx\n",
			rate*100, r.IncrementalMillis, r.SnapshotMillis, r.SnapshotMillis/r.IncrementalMillis)
	}
	fmt.Println()
}

func recovery(base bench.Fig5Config) {
	fmt.Println("=== Ablation 5: out-of-sync recovery, diff vs. complete answer ===")
	fmt.Printf("%14s %12s %12s %12s %12s\n", "missed ticks", "diff KB", "full KB", "diff tuples", "answer size")
	for _, r := range bench.RunRecovery(base, []int{1, 2, 5, 10, 20, 50}) {
		fmt.Printf("%14d %12.3f %12.3f %12d %12d\n",
			r.MissedTicks, r.DiffKB, r.FullKB, r.DiffTuples, r.AnswerSize)
	}
	fmt.Println()
}

func predictive(base bench.Fig5Config) {
	fmt.Println("=== Ablation 7: predictive-query answer size vs. object update rate ===")
	fmt.Printf("%8s %14s %14s %8s %12s\n", "rate", "incr. KB", "complete KB", "ratio", "step ms")
	for _, rate := range []float64{0.1, 0.3, 0.5} {
		cfg := base
		cfg.Rate, cfg.QueryRate = rate, rate
		fig5Row(fmt.Sprintf("%.0f%%", rate*100), bench.RunPredictivePoint(cfg))
	}
	fmt.Println()
}

func bulk(base bench.Fig5Config) {
	fmt.Println("=== Ablation 6: bulk vs. per-report evaluation ===")
	fmt.Printf("%12s %12s %14s %9s\n", "batch size", "bulk ms", "one-by-one ms", "speedup")
	for _, r := range bench.RunBulk(base, []int{100, 500, 1000, 5000}) {
		fmt.Printf("%12d %12.1f %14.1f %8.1fx\n",
			r.BatchSize, r.BulkMillis, r.OneByOneMS, r.OneByOneMS/r.BulkMillis)
	}
	fmt.Println()
}
