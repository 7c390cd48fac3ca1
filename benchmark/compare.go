package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

// setConfig is a set of runs: one or all workloads, repeated over
// consecutive seeds, untraced, traced or both.
type setConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	repeat   int
	outDir   string
	name     string
}

// runSet runs every (workload, seed, mode) of the set, each in a child
// process of its own so that peak memory and warm-up are per run, and
// writes them all to one run file. It reports whether every run was
// correct.
func runSet(cfg setConfig) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	modes := []int{cfg.trace}
	if cfg.trace == 2 {
		modes = []int{0, 1}
	}
	var runs []*result
	ok := true
	for _, w := range names {
		for i := 0; i < max(cfg.repeat, 1); i++ {
			for _, mode := range modes {
				child := fmt.Sprintf("child-%d", os.Getpid())
				args := []string{
					"-workload", w, "-seed", fmt.Sprint(cfg.seed + int64(i)), "-seconds", fmt.Sprint(cfg.seconds),
					"-trace", fmt.Sprint(mode), "-out", cfg.outDir, "-name", child, fmt.Sprintf("-quick=%v", cfg.quick),
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				runErr := cmd.Run()
				path := filepath.Join(cfg.outDir, child+".json")
				var rf runFile
				if data, err := os.ReadFile(path); err == nil {
					err = json.Unmarshal(data, &rf)
					os.Remove(path)
					if err != nil {
						return false, fmt.Errorf("%s: %w", path, err)
					}
				}
				if runErr != nil || len(rf.Runs) == 0 {
					ok = false
					fmt.Printf("%s seed %d: run failed: %v\n", w, cfg.seed+int64(i), runErr)
				}
				runs = append(runs, rf.Runs...)
			}
		}
	}
	name := cfg.name
	if name == "" {
		name = "set"
	}
	path := filepath.Join(cfg.outDir, name+".json")
	if err := writeRunFile(path, runs); err != nil {
		return false, err
	}
	printSummary(runs)
	fmt.Printf("wrote %s (%d runs)\n", path, len(runs))
	for _, r := range runs {
		ok = ok && r.Correct && r.Failed == 0
	}
	return ok, nil
}

// quartiles returns the quartiles as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the pipeline judges the benchmark's spread. A single
// value is its own quartiles.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// rowKey is one row of the summary and comparison tables.
type rowKey struct {
	workload, metric string
	traced           bool
}

// collect groups metric values by row, in run order.
func collect(runs []*result) map[rowKey][]float64 {
	out := make(map[rowKey][]float64)
	for _, r := range runs {
		for name, m := range r.Metrics {
			k := rowKey{r.Workload, name, r.Traced}
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

// printSummary prints, per workload, every metric's median and quartiles
// over the set, and the tracing overhead when both modes were run.
func printSummary(runs []*result) {
	rows := collect(runs)
	fmt.Printf("\n%-15s %-28s %-9s %14s %14s %14s %3s\n", "workload", "metric", "run", "q1", "median", "q3", "n")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			mode := "untraced"
			if traced {
				defs, mode = perLayer, "traced"
			}
			for _, d := range defs {
				vals := rows[rowKey{w.Name, d.Name, traced}]
				if len(vals) == 0 {
					continue
				}
				q1, q2, q3 := quartiles(vals)
				fmt.Printf("%-15s %-28s %-9s %14.4f %14.4f %14.4f %3d\n", w.Name, d.Name, mode, q1, q2, q3, len(vals))
			}
		}
		plain := rows[rowKey{w.Name, "kreports_per_s", false}]
		traced := rows[rowKey{w.Name, "kreports_per_s", true}]
		if len(plain) > 0 && len(traced) > 0 {
			_, p, _ := quartiles(plain)
			_, t, _ := quartiles(traced)
			fmt.Printf("%-15s %-28s %-9s %14s %14.4f\n", w.Name, "trace_overhead_frac", "both", "", (p-t)/p)
		}
	}
	printCrossWorkload(rows)
}

// printCrossWorkload prints the ratios that need two rows of one set:
// what sharding and what durability cost per report.
func printCrossWorkload(rows map[rowKey][]float64) {
	med := func(w string) float64 {
		_, m, _ := quartiles(rows[rowKey{w, "kreports_per_s", false}])
		return m
	}
	if e, s := med("engine-paper"), med("shard-paper"); e > 0 && s > 0 {
		fmt.Printf("%-15s %-28s %-9s %14s %14.4f\n", "shard-paper", "vs engine-paper kreports_per_s", "untraced", "", s/e)
	}
	if f, d := med("ingest-flood"), med("ingest-durable"); f > 0 && d > 0 {
		fmt.Printf("%-15s %-28s %-9s %14s %14.1f\n", "ingest-durable", "repository.cost_ns_per_report", "untraced", "", 1e6/d-1e6/f)
	}
}

// benchSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRunFile(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf.Runs, nil
}

// minPairs is how many decided pairs a gain needs: five sequential runs
// per side all "win" whenever the box drifts between the two sets, which
// on the same code it did three rows out of twenty.
const minPairs = 10

// verdict applies the rule for one end-to-end row. a is the parent's
// values, b the change's, paired by position (same seeds). Worse by more
// than the bound is a regression. A gain needs at least minPairs pairs,
// the change to win at least nine tenths of them (ties counting for
// neither) and the medians to differ by more than the spread of the
// parent's own runs.
// Otherwise the row is unchanged — unless either side's spread exceeds
// the bound, in which case the runs cannot tell and it is unresolved.
func verdict(a, b []float64, higherBetter bool, bound float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	if am == 0 {
		return "unresolved", 0
	}
	worse := (bm - am) / am // positive: the change is worse
	if higherBetter {
		worse = -worse
	}
	if worse > bound {
		return "regressed", worse
	}
	wins, losses := 0, 0
	for i := 0; i < min(len(a), len(b)); i++ {
		switch {
		case a[i] == b[i]:
		case (b[i] > a[i]) == higherBetter:
			wins++
		default:
			losses++
		}
	}
	if pairs := wins + losses; worse < 0 && pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) &&
		-worse*am > aq3-aq1 {
		return "improved", worse
	}
	if (aq3-aq1)/am > bound || (bm != 0 && (bq3-bq1)/bm > bound) {
		return "unresolved", worse
	}
	return "unchanged", worse
}

// compareFiles prints one row per (workload, end-to-end metric) with
// each side's median and quartiles and the verdict against the bound in
// BENCHMARK.json, then checks that the exact-count metrics are equal run
// for run.
func compareFiles(specPath, pathA, pathB string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	runsA, err := readRunFile(pathA)
	if err != nil {
		return err
	}
	runsB, err := readRunFile(pathB)
	if err != nil {
		return err
	}
	a, b := collect(runsA), collect(runsB)
	fmt.Printf("%-15s %-16s %31s %31s %8s  %s\n", "workload", "metric", "A  q1 / median / q3", "B  q1 / median / q3", "worse", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			k := rowKey{w.Name, m.Name, false}
			if len(a[k]) == 0 || len(b[k]) == 0 {
				continue
			}
			aq1, am, aq3 := quartiles(a[k])
			bq1, bm, bq3 := quartiles(b[k])
			v, worse := verdict(a[k], b[k], m.Better == "higher", m.Bound)
			fmt.Printf("%-15s %-16s %9.3f /%9.3f /%9.3f  %9.3f /%9.3f /%9.3f %+7.1f%%  %s\n",
				w.Name, m.Name, aq1, am, aq3, bq1, bm, bq3, 100*worse, v)
		}
		fa, fb := failedOf(runsA, w.Name), failedOf(runsB, w.Name)
		v := "unchanged"
		if fb > fa {
			v = "regressed"
		}
		fmt.Printf("%-15s %-16s %31d %31d %8s  %s\n", w.Name, "failed", fa, fb, "", v)
		for _, d := range perLayer {
			if !exactCounts[d.Name] {
				continue
			}
			name := d.Name
			for _, traced := range []bool{false, true} {
				k := rowKey{w.Name, name, traced}
				if len(a[k]) == 0 || len(b[k]) == 0 {
					continue
				}
				v := "identical"
				if !slices.Equal(a[k], b[k]) {
					v = "differs"
				}
				fmt.Printf("%-15s %-28s traced=%-5v %d vs %d runs: %s\n", w.Name, name, traced, len(a[k]), len(b[k]), v)
			}
		}
	}
	return nil
}

func failedOf(runs []*result, workload string) (failed int) {
	for _, r := range runs {
		if r.Workload == workload && !r.Traced {
			failed += r.Failed
		}
	}
	return failed
}
