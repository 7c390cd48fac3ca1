package core

import "cqp/internal/obs"

// engineMetrics are the engine's pre-resolved observability
// instruments. They are bound once in NewEngine — never looked up by
// name on the evaluation path — so a metrics-enabled Step performs
// only atomic adds and stays inside the steady-state allocation
// budget (TestStepSteadyStateAllocsWithMetrics pins this).
//
// The work counters are the Stats ledger itself, published: each Step
// adds its ledger delta to the counter bound in newEngineMetrics, so the
// scraped view cannot drift from Stats. When several engines share one
// registry — the sharded engine resolves these same names once per
// tile — the counters aggregate across all of them.
type engineMetrics struct {
	tracer *obs.Tracer

	stepLatency *obs.Histogram // full Step duration (needs a Clock)
	stepUpdates *obs.Histogram // updates emitted per Step
	joinLatency *obs.Histogram // the query-update join, phases 2–4 (see join.go)

	ledger [numCounters]*obs.Counter // in Stats.Counters order

	// Phases the join split across helpers (join.go's fork). Kept out
	// of Stats: how a phase was split depends on GOMAXPROCS and on the
	// other engines in the process, and the ledger must not. The
	// engine.helpers gauge reads the process-wide helper count.
	parallelPhases *obs.Counter

	// Scratch-slab high-water marks: the retained working-set sizes
	// that make steady-state Steps allocation-stable. A mark that keeps
	// climbing under a stable workload is a leak in scratch reuse.
	movedHighWater  *obs.Gauge // cap of the phase-1 changed-object list
	lastEmitted     *obs.Gauge // updates emitted by the last Step
	objects, qrySet *obs.Gauge // registered population after the last Step
}

// newEngineMetrics resolves every instrument against reg (nil reg
// yields detached instruments) and binds the injected clock.
func newEngineMetrics(reg *obs.Registry, clock obs.Clock) *engineMetrics {
	reg.SharedGaugeFunc("engine.helpers", func() int64 { return int64(helpers.Load()) })
	return &engineMetrics{
		tracer:         obs.NewTracer(clock),
		stepLatency:    reg.Histogram("engine.step_ns", obs.DurationBuckets),
		stepUpdates:    reg.Histogram("engine.step_updates", obs.SizeBuckets),
		joinLatency:    reg.Histogram("engine.join_ns", obs.DurationBuckets),
		movedHighWater: reg.Gauge("engine.scratch.moved_cap"),
		lastEmitted:    reg.Gauge("engine.last_emitted"),
		objects:        reg.Gauge("engine.objects"),
		qrySet:         reg.Gauge("engine.queries"),
		parallelPhases: reg.Counter("engine.parallel_phases"),
		ledger: [numCounters]*obs.Counter{ // in Stats.Counters order
			reg.Counter("engine.steps"),
			reg.Counter("engine.reports.objects"),
			reg.Counter("engine.moved_objects"),
			reg.Counter("engine.reports.queries"),
			reg.Counter("engine.region_cells"),
			reg.Counter("engine.candidate_checks"),
			reg.Counter("engine.join.findings"),
			reg.Counter("engine.knn.recomputes"),
			reg.Counter("engine.updates.positive"),
			reg.Counter("engine.updates.negative"),
		},
	}
}
