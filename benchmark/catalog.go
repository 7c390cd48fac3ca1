package main

// metricDef names one metric of the benchmark. The same names, units and
// directions are declared in BENCHMARK.json (TestCatalogMatchesSpec keeps
// the two in step); README.md holds the glossary.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the system would see. Every
// workload reports every one of them from its untraced run.
var endToEnd = []metricDef{
	{"kreports_per_s", "kreports/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p95_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of single layers, reported from the traced
// run. A layer a workload does not exercise reports 0: that is the
// predicted "does not move" cell of the map in README.md.
var perLayer = []metricDef{
	{"heap_live_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"gen.script_s", "s", "lower"},
	{"gen.sched_lag_p99_ms", "ms", "lower"},
	{"gen.ceiling_kreports_per_s", "kreports/s", "higher"},
	{"core.report_ns", "ns", "lower"},
	{"core.step_p50_ms", "ms", "lower"},
	{"core.step_p95_ms", "ms", "lower"},
	{"core.updates_total", "count", "lower"},
	{"core.update_kb_per_step", "KB", "lower"},
	{"core.updates_per_report", "ratio", "lower"},
	{"shard.route_ns", "ns", "lower"},
	{"shard.merge_ms", "ms", "lower"},
	{"shard.step_p50_ms", "ms", "lower"},
	{"shard.overhead_ratio", "ratio", "lower"},
	{"server.ingest_wait_ms", "ms", "lower"},
	{"server.evaluate_ms", "ms", "lower"},
	{"server.fanout_self_ms", "ms", "lower"},
	{"server.post_eval_ms", "ms", "lower"},
	{"server.frames_in", "count", "higher"},
	{"server.evaluations", "count", "higher"},
	{"server.sheds_drops", "count", "lower"},
	{"wire.write_ms", "ms", "lower"},
	{"wire.bytes_out_per_update", "B", "lower"},
	{"wire.bytes_in_per_report", "B", "lower"},
	{"client.send_ns", "ns", "lower"},
	{"client.apply_ms", "ms", "lower"},
	{"repository.append_ns", "ns", "lower"},
	{"repository.bytes_per_report", "B", "lower"},
}

// exactCounts are the per-layer metrics that must repeat exactly for a
// seed on one commit; -compare checks them for equality, not spread.
var exactCounts = map[string]bool{
	"core.updates_total":      true,
	"core.update_kb_per_step": true,
}

// workloadDef names one workload; BENCHMARK.json and README.md say why
// each exists.
type workloadDef struct {
	Name string
	run  func(runConfig) (*result, error)
}

var workloads = []workloadDef{
	{"engine-paper", runEnginePaper},
	{"shard-paper", runShardPaper},
	{"serve-bulk", runServeBulk},
	{"ingest-flood", runIngestFlood},
	{"ingest-durable", runIngestDurable},
}
