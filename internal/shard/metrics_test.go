package shard

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/testutil/scenario"
)

// atomicFakeClock is a deterministic obs.Clock safe for the sharded
// engine: tile workers read the clock concurrently, so the counter must
// be atomic (the single-engine tests get away with a plain int64).
func atomicFakeClock() obs.Clock {
	var t atomic.Int64
	return func() int64 {
		return t.Add(1_000_000) // 1ms per reading
	}
}

// TestShardMetricsDoNotAffectUpdates is the sharded half of the
// differential guarantee: the same seeded report stream through a bare
// 2×2 sharded engine and a fully instrumented one (shared registry,
// live clock, skew and queue-depth histograms all recording) yields
// bit-identical merged update streams, step by step.
func TestShardMetricsDoNotAffectUpdates(t *testing.T) {
	// Range and predictive queries only: no kNN settling sub-steps.
	g := scenario.NewGen(99, scenario.Velocity|scenario.ObjectRemovals|scenario.Repeats)
	reg := obs.NewRegistry()
	icopt := g.Options()
	icopt.Metrics = reg
	icopt.Clock = atomicFakeClock()
	inst, err := New(Options{Core: icopt, Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	totalEmitted := 0
	const steps = 40
	scenario.Run(t, g, scenario.Config{
		Steps: steps, SameStream: true,
		Procs: []core.Processor{newScenarioShard(t, g, 2, 2), inst},
		After: func(_ int, streams [][]core.Update) { totalEmitted += len(streams[2]) },
	})

	// The router-level counters must reflect the observed traffic
	// exactly where the contract is exact, and be plausible elsewhere.
	if got := reg.Counter("shard.steps").Value(); got != steps {
		t.Errorf("shard.steps = %d, want %d", got, steps)
	}
	if got := reg.Counter("shard.updates.merged").Value(); got != uint64(totalEmitted) {
		t.Errorf("shard.updates.merged = %d, want %d (observed emissions)", got, totalEmitted)
	}
	if got := reg.Gauge("shard.tiles").Value(); got != 4 {
		t.Errorf("shard.tiles = %d, want 4", got)
	}
	if got := reg.Counter("shard.migrations").Value(); got == 0 {
		t.Error("shard.migrations = 0: uniform re-placement on a 2x2 grid must migrate objects")
	}
	if got, n := reg.Gauge("shard.tile_objects_max").Value(), int64(inst.NumObjects()); got <= 0 || got > n {
		t.Errorf("shard.tile_objects_max = %d, want within (0, %d]", got, n)
	}
	// The tile engines resolve the same engine.* names against the
	// shared registry, so engine.steps aggregates across all four tiles:
	// at least tiles×steps (kNN settling may add sub-steps; none here).
	if got := reg.Counter("engine.steps").Value(); got != 4*steps {
		t.Errorf("engine.steps = %d, want %d (4 tiles x %d steps, no kNN settling)", got, 4*steps, steps)
	}
	if got := reg.Histogram("shard.step_ns", obs.DurationBuckets).Count(); got != steps {
		t.Errorf("shard.step_ns count = %d, want %d", got, steps)
	}
	if got := reg.Histogram("shard.step_skew_ns", obs.DurationBuckets).Count(); got != steps {
		t.Errorf("shard.step_skew_ns count = %d, want %d (4 workers, clock live)", got, steps)
	}
	if got := reg.Histogram("shard.queue_depth", obs.SizeBuckets).Count(); got == 0 {
		t.Error("shard.queue_depth recorded nothing")
	}
}

// TestShardMetricsDoNotAffectWork extends the rule from the stream to
// the work: on a hotspot workload, a bare 2×2 router and one with
// metrics and a live clock must end with the same tiles and the same
// work ledger, so what the tiles do cannot depend on whether anyone is
// measuring them. Both streams also match the scenario driver's
// reference engine, which keeps the router under load skew
// differentially tested.
func TestShardMetricsDoNotAffectWork(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := scenario.NewGen(seed, churnVocab|scenario.Hotspot)
			bare := newScenarioShard(t, g, 2, 2)
			reg := obs.NewRegistry()
			iopt := g.Options()
			iopt.Metrics = reg
			iopt.Clock = atomicFakeClock()
			inst := MustNew(Options{Core: iopt, Rows: 2, Cols: 2})
			defer inst.Close()
			scenario.Run(t, g, scenario.Config{Steps: 100, Procs: []core.Processor{bare, inst}, SameStream: true})
			if b, i := bare.NumTiles(), inst.NumTiles(); b != i {
				t.Errorf("tiles: bare %d, instrumented %d", b, i)
			}
			if b, i := bare.Stats(), inst.Stats(); b != i {
				t.Errorf("work ledger\n bare         %+v\n instrumented %+v", b, i)
			}
		})
	}
}

// appendStepper steps its engine through StepAppend into one reused
// buffer behind a sentinel prefix, which must survive every step.
type appendStepper struct {
	*Engine
	t   *testing.T
	buf []core.Update
}

var sentinel = core.Update{Query: 999, Object: 999, Positive: true}

func (a *appendStepper) Step(now float64) []core.Update {
	a.buf = a.StepAppend(append(a.buf[:0], sentinel), now)
	if a.buf[0] != sentinel {
		a.t.Fatalf("t=%v: prefix clobbered: %v", now, a.buf[0])
	}
	return slices.Clone(a.buf[1:])
}

// TestShardStepAppendMatchesStep pins the sharded StepAppend contract:
// identical workloads through Step and through StepAppend with a reused
// buffer produce identical streams, and the dst prefix is preserved.
func TestShardStepAppendMatchesStep(t *testing.T) {
	g := scenario.NewGen(5, scenario.Velocity|scenario.KNN|scenario.ObjectRemovals|scenario.Repeats)
	scenario.Run(t, g, scenario.Config{
		Steps: 20, SameStream: true,
		Procs: []core.Processor{newScenarioShard(t, g, 2, 2), &appendStepper{Engine: newScenarioShard(t, g, 2, 2), t: t}},
	})
}
