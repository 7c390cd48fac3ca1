package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"cqp/internal/geo"
	"cqp/internal/obs"
)

// fakeClock is a deterministic obs.Clock for tests: each reading
// advances by a fixed step, so latency histograms fill without any wall
// time passing.
func fakeClock() obs.Clock {
	var t int64
	return func() int64 {
		t += 1_000_000 // 1ms per reading
		return t
	}
}

// metricsBenchEngine is benchEngine with observability fully enabled:
// a live registry and a deterministic clock.
func metricsBenchEngine(objects, queries int, kind QueryKind, reg *obs.Registry) (*Engine, *rand.Rand) {
	e := MustNewEngine(Options{
		Bounds: geo.R(0, 0, 1, 1), GridN: 64, PredictiveHorizon: 100,
		Metrics: reg, Clock: fakeClock(),
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < objects; i++ {
		e.ReportObject(ObjectUpdate{
			ID: ObjectID(i + 1), Kind: Moving,
			Loc: geo.Pt(rng.Float64(), rng.Float64()),
		})
	}
	for j := 0; j < queries; j++ {
		u := QueryUpdate{ID: QueryID(j + 1), Kind: kind}
		switch kind {
		case Range:
			u.Region = geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.01)
		case KNN:
			u.Focal = geo.Pt(rng.Float64(), rng.Float64())
			u.K = 5
		}
		e.ReportQuery(u)
	}
	e.Step(0)
	return e, rng
}

// TestStepSteadyStateAllocsWithMetrics proves the observability layer
// costs nothing on the hot path: a fully instrumented steady-state Step
// (registry, clock, and latency histograms all live) must fit the SAME
// allocation budget as the uninstrumented engine pinned by
// TestStepSteadyStateAllocs. If instrumentation ever allocates — a
// name lookup, a boxed value, a fresh closure — this fails before any
// benchmark shows the regression.
func TestStepSteadyStateAllocsWithMetrics(t *testing.T) {
	const objects, queries, moves = 10000, 10000, 100
	reg := obs.NewRegistry()
	e, rng := metricsBenchEngine(objects, queries, Range, reg)
	for i := 0; i < 100; i++ {
		stepChurn(e, rng, objects, moves, float64(i))
	}
	tick := 100
	avg := testing.AllocsPerRun(20, func() {
		stepChurn(e, rng, objects, moves, float64(tick))
		tick++
	})
	const budget = 50 // identical to TestStepSteadyStateAllocs: metrics add zero
	t.Logf("steady-state Step with metrics: %.1f allocs/tick (budget %d)", avg, budget)
	if avg > budget {
		t.Errorf("metrics-enabled steady-state Step allocates %.1f times per tick; budget is %d", avg, budget)
	}
	if got := reg.Counter("engine.steps").Value(); got == 0 {
		t.Fatal("metrics were not recording: engine.steps is 0")
	}
	if got := reg.Histogram("engine.step_ns", obs.DurationBuckets).Count(); got == 0 {
		t.Fatal("step latency histogram recorded nothing despite a configured clock")
	}
}

// TestStepAppendSteadyStateAllocs pins the StepAppend path: with the
// caller reusing one output buffer across ticks, even Step's one
// contractual allocation (the fresh result slice) disappears, so the
// budget here is strictly below the Step budget.
//
// As in TestStepSteadyStateAllocs, the subtest keeps its established
// name for the serial engine.
func TestStepAppendSteadyStateAllocs(t *testing.T) {
	t.Run("parallelism=0", func(t *testing.T) {
		const objects, queries, moves = 10000, 10000, 100
		e, rng := benchEngine(objects, queries, Range)
		var buf []Update
		churnAppend := func(tick float64) {
			for n := 0; n < moves; n++ {
				id := ObjectID(1 + rng.Intn(objects))
				e.ReportObject(ObjectUpdate{
					ID: id, Kind: Moving,
					Loc: geo.Pt(rng.Float64(), rng.Float64()), T: tick,
				})
			}
			buf = e.StepAppend(buf[:0], tick)
		}
		for i := 0; i < 100; i++ {
			churnAppend(float64(i))
		}
		tick := 100
		avg := testing.AllocsPerRun(20, func() {
			churnAppend(float64(tick))
			tick++
		})
		const budget = 49 // must beat Step's budget: the output slice is reused
		t.Logf("steady-state StepAppend: %.1f allocs/tick (budget %d)", avg, budget)
		if avg > budget {
			t.Errorf("steady-state StepAppend allocates %.1f times per tick; budget is %d", avg, budget)
		}
	})
}

// TestStepAppendPreservesPrefixAndSortsSuffix checks the append
// contract: dst's existing contents are untouched and only the
// appended region is (canonically) sorted.
func TestStepAppendPreservesPrefixAndSortsSuffix(t *testing.T) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 1, 1)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 1, 1)})
	e.ReportObject(ObjectUpdate{ID: 7, Kind: Moving, Loc: geo.Pt(0.5, 0.5)})
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(0.25, 0.25)})

	sentinel := Update{Query: 99, Object: 99, Positive: false}
	out := e.StepAppend([]Update{sentinel}, 1)
	if len(out) != 3 {
		t.Fatalf("expected sentinel + 2 updates, got %v", out)
	}
	if out[0] != sentinel {
		t.Fatalf("prefix clobbered: %v", out[0])
	}
	want := []Update{
		{Query: 1, Object: 3, Positive: true},
		{Query: 1, Object: 7, Positive: true},
	}
	for i, w := range want {
		if out[1+i] != w {
			t.Fatalf("appended region = %v, want %v", out[1:], want)
		}
	}
}

// TestMetricsDoNotAffectUpdates is the differential guarantee the
// Options.Metrics docs promise: the same report stream through a bare
// engine and a fully instrumented one yields bit-identical update
// streams, step by step. The first size moves one chunk of objects a
// tick and never forks; the second moves thousands, so its phases fork
// above one CPU and the parallel-phase counter moves.
func TestMetricsDoNotAffectUpdates(t *testing.T) {
	checkMetricsDoNotAffectUpdates(t, 500, 500, 50, false)
	checkMetricsDoNotAffectUpdates(t, 4000, 20000, 4000, true)
}

func checkMetricsDoNotAffectUpdates(t *testing.T, objects, queries, moves int, fork bool) {
	reg := obs.NewRegistry()
	bare, rngA := benchEngine(objects, queries, Range)
	inst, rngB := metricsBenchEngine(objects, queries, Range, reg)
	setupForked := reg.Counter("engine.parallel_phases").Value()

	for tick := 1; tick <= 30; tick++ {
		for n := 0; n < moves; n++ {
			// Identical draws on both sides: the seeded rngs are in
			// lockstep by construction.
			bare.ReportObject(ObjectUpdate{
				ID: ObjectID(1 + rngA.Intn(objects)), Kind: Moving,
				Loc: geo.Pt(rngA.Float64(), rngA.Float64()), T: float64(tick),
			})
			inst.ReportObject(ObjectUpdate{
				ID: ObjectID(1 + rngB.Intn(objects)), Kind: Moving,
				Loc: geo.Pt(rngB.Float64(), rngB.Float64()), T: float64(tick),
			})
		}
		a := bare.Step(float64(tick))
		b := inst.Step(float64(tick))
		if len(a) != len(b) {
			t.Fatalf("tick %d: %d updates bare vs %d instrumented", tick, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("tick %d update %d: %v bare vs %v instrumented", tick, i, a[i], b[i])
			}
		}
	}
	if bare.Stats() != inst.Stats() {
		t.Errorf("ledgers differ: bare %+v, instrumented %+v", bare.Stats(), inst.Stats())
	}

	// The parallel-phase counter stays out of the ledger; it moves
	// exactly when a phase has more than one chunk of items and there is
	// a CPU to fork to.
	forked := reg.Counter("engine.parallel_phases").Value() - setupForked
	if want := fork && runtime.GOMAXPROCS(0) > 1; (forked > 0) != want {
		t.Errorf("%d objects, %d moves a tick: %d phases forked in the ticks, want forking %v",
			objects, moves, forked, want)
	}
	if _, ok := reg.Snapshot()["engine.helpers"]; !ok {
		t.Error("engine.helpers gauge not registered")
	}

	// Every ledger counter is published under its engine.* name and
	// agrees exactly with Stats.
	st := inst.Stats()
	checks := []struct {
		name string
		want uint64
	}{
		{"engine.steps", st.Steps},
		{"engine.reports.objects", st.ObjectReports},
		{"engine.moved_objects", st.ObjectsIndexed},
		{"engine.reports.queries", st.QueryReports},
		{"engine.region_cells", st.RegionEvalCells},
		{"engine.candidate_checks", st.CandidateChecks},
		{"engine.join.findings", st.JoinFindings},
		{"engine.knn.recomputes", st.KNNRecomputes},
		{"engine.updates.positive", st.PositiveUpdates},
		{"engine.updates.negative", st.NegativeUpdates},
	}
	if len(checks) != len(st.Counters()) {
		t.Fatalf("checking %d metrics for %d ledger counters", len(checks), len(st.Counters()))
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d (ledger publication drifted)", c.name, got, c.want)
		}
	}
}

// TestLedgerCountersCoverStats requires Stats.Counters to list every
// Stats field exactly once, so a counter added to the ledger is
// published and summed.
func TestLedgerCountersCoverStats(t *testing.T) {
	var s Stats
	seen := make(map[*uint64]int)
	for _, p := range s.Counters() {
		seen[p]++
	}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		p := v.Field(i).Addr().Interface().(*uint64)
		if seen[p] != 1 {
			t.Errorf("Stats.%s appears %d times in Counters", v.Type().Field(i).Name, seen[p])
		}
	}
	if v.NumField() != len(seen) {
		t.Errorf("Counters lists %d distinct counters, Stats has %d fields", len(seen), v.NumField())
	}
}
