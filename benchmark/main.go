// Command benchmark is the repository's one benchmark: five named
// workloads over the whole pipeline, end-to-end metrics from an
// untraced run and per-layer metrics from a traced one. BENCHMARK.json
// at the repository root declares the names; README.md explains them.
package main

import (
	"cqp/internal/core"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool   // 1/20 scale, for the test suite
	outDir   string // where trace files and temporary repositories go

	// wrap, when set, decorates the processor of the TCP workloads; the
	// measurement self-test injects a known delay through it.
	wrap func(core.Processor) core.Processor
}

// metricValue is one reported metric.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is what one run reports.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Notes     []string               `json:"notes,omitempty"`
}

func newResult(cfg runConfig) *result {
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds,
		Metrics: make(map[string]metricValue),
	}
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range endToEnd {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// set records a metric under its catalogued name.
func (r *result) set(name string, value float64, samples int) {
	unit, ok := units[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalog")
	}
	r.Metrics[name] = metricValue{Value: value, Unit: unit, Samples: samples}
}

// setLatency records the latency percentiles every workload reports.
func (r *result) setLatency(rec *recorder) {
	r.set("latency_p50_ms", rec.ms(0.50), rec.count())
	r.set("latency_p95_ms", rec.ms(0.95), rec.count())
	if !rec.supports(0.95) {
		r.note("latency_p95_ms has fewer than %d of its %d samples beyond it", minBeyond, rec.count())
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// setMemory records the heap still live after a collection — what the
// constructed system and the benchmark's script retain, which repeats
// from run to run — and the resident-set high-water mark, which follows
// the collector's pacing and does not.
func (r *result) setMemory() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20), 1)
	r.set("peak_rss_mb", peakRSSMB(), 1)
}

// setSetup records setup_s: the median of the run's set-up times.
func (r *result) setSetup(seconds []float64) {
	_, med, _ := quartiles(seconds)
	r.set("setup_s", med, len(seconds))
}

// timeSetups sets the system up n times, tearing down all but the last,
// and returns how long each set-up took.
func timeSetups(n int, setUp func() error, tearDown func()) ([]float64, error) {
	var seconds []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			tearDown()
		}
		start := time.Now()
		if err := setUp(); err != nil {
			return nil, err
		}
		seconds = append(seconds, time.Since(start).Seconds())
	}
	return seconds, nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// stamp identifies the hardware and build every row of a run shares.
type stamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	Commit     string `json:"commit"`
}

// commit is the repository commit the binary was built from; run.sh sets
// it with -ldflags when the checkout is a git repository.
var commit = "unknown"

func newStamp() stamp {
	return stamp{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Commit: commit}
}

// runFile is what a run (or a set of runs) leaves in the output
// directory; -compare reads two of them.
type runFile struct {
	Stamp stamp     `json:"stamp"`
	Runs  []*result `json:"runs"`
}

func writeRunFile(path string, runs []*result) error {
	data, err := json.MarshalIndent(runFile{Stamp: newStamp(), Runs: runs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printTable prints every metric of a run by name with unit and sample
// count, in catalog order.
func printTable(r *result) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("%s  seed %d  %s  %.0f s  attempted %d  failed %d  correct %v\n",
		r.Workload, r.Seed, mode, r.Seconds, r.Attempted, r.Failed, r.Correct)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := r.Metrics[d.Name]; ok {
				fmt.Printf("  %-28s %14.4f %-10s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// lastLine is the single JSON object the driver reads: with tracing off
// every end-to-end metric, with tracing on every per-layer metric.
func lastLine(r *result) string {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mv, len(defs))
	for _, d := range defs {
		metrics[d.Name] = mv{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(data)
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runOne runs one workload in this process.
func runOne(cfg runConfig) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	return w.run(cfg)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: untraced run (end-to-end metrics); 1: traced run (per-layer metrics); 2: both, and trace_overhead_frac")
		quick    = flag.Bool("quick", false, "1/20 scale")
		repeat   = flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...")
		compare  = flag.Bool("compare", false, "compare two run files: -compare A.json B.json")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "output directory")
		spec     = flag.String("spec", "BENCHMARK.json", "the benchmark declaration (bounds for -compare)")
		name     = flag.String("name", "", "name of the run file written to the output directory")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		if err := compareFiles(*spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *workload != "all" && *repeat <= 1 && *trace != 2 {
		cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, quick: *quick, outDir: *outDir}
		res, err := runOne(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printTable(res)
		file := *name
		if file == "" {
			file = fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, *trace)
		}
		if err := writeRunFile(filepath.Join(cfg.outDir, file+".json"), []*result{res}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(lastLine(res))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}
	ok, err := runSet(setConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace,
		quick: *quick, repeat: *repeat, outDir: *outDir, name: *name,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}
