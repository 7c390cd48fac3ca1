package bench

import "testing"

// tiny returns a configuration small enough for unit tests while still
// exercising the full harness path.
func tiny() Fig5Config {
	return Fig5Config{
		Objects: 400, Queries: 400, GridN: 16,
		QuerySide: 0.02, Rate: 0.3, QueryRate: 0.3,
		Ticks: 2, Warmup: 1, DT: 5, Seed: 1,
	}
}

func TestWithDefaults(t *testing.T) {
	c := Fig5Config{}.WithDefaults()
	if c.Objects != 20000 || c.Queries != 20000 || c.GridN != 64 ||
		c.QuerySide != 0.01 || c.Rate != 0.3 || c.QueryRate != 0.3 ||
		c.Ticks != 10 || c.Warmup != 3 || c.DT != 5 || c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	// Explicit values survive.
	c = Fig5Config{Objects: 7, Rate: 0.9}.WithDefaults()
	if c.Objects != 7 || c.Rate != 0.9 {
		t.Fatalf("overrides lost: %+v", c)
	}
}

func TestRunFig5PointShape(t *testing.T) {
	r := RunFig5Point(tiny())
	if r.IncrementalKB <= 0 || r.CompleteKB <= 0 {
		t.Fatalf("zero traffic: %+v", r)
	}
	if r.IncrementalKB >= r.CompleteKB {
		t.Fatalf("incremental (%v KB) should be below complete (%v KB)",
			r.IncrementalKB, r.CompleteKB)
	}
	if r.Updates <= 0 || r.AnswerTuples <= 0 {
		t.Fatalf("no activity: %+v", r)
	}

	// Determinism: same config, same numbers (wall time excluded).
	r2 := RunFig5Point(tiny())
	r.StepMillis, r2.StepMillis = 0, 0
	if r != r2 {
		t.Fatalf("non-deterministic: %+v vs %+v", r, r2)
	}

	// Higher update rate ⇒ more incremental traffic (Figure 5a's slope).
	hi := tiny()
	hi.Rate = 1.0
	rHi := RunFig5Point(hi)
	if rHi.IncrementalKB <= r.IncrementalKB {
		t.Fatalf("rate 100%% traffic %v ≤ rate 30%% traffic %v",
			rHi.IncrementalKB, r.IncrementalKB)
	}

	// Larger queries ⇒ larger complete answers (Figure 5b's slope).
	wide := tiny()
	wide.QuerySide = 0.06
	rWide := RunFig5Point(wide)
	if rWide.CompleteKB <= r.CompleteKB {
		t.Fatalf("side 0.06 complete %v ≤ side 0.02 complete %v",
			rWide.CompleteKB, r.CompleteKB)
	}
}

func TestRunStrategyComparison(t *testing.T) {
	r := RunStrategyComparison(tiny())
	if r.IncrementalMillis <= 0 || r.SnapshotMillis <= 0 {
		t.Fatalf("missing timings: %+v", r)
	}
}

func TestRunGridSweep(t *testing.T) {
	times := RunGridSweep(tiny(), []int{8, 32})
	if len(times) != 2 || times[0] <= 0 || times[1] <= 0 {
		t.Fatalf("sweep: %v", times)
	}
}

func TestRunRecovery(t *testing.T) {
	rs := RunRecovery(tiny(), []int{1, 5})
	if len(rs) != 2 {
		t.Fatalf("results: %+v", rs)
	}
	for _, r := range rs {
		if r.DiffKB <= 0 || r.FullKB <= 0 {
			t.Fatalf("zero traffic: %+v", r)
		}
		// The diff can never contain more information than twice the
		// answer (everything left + everything entered).
		if r.DiffTuples > 2*r.AnswerSize+2 {
			t.Fatalf("implausible diff: %+v", r)
		}
	}
	// A short outage needs (weakly) less recovery traffic than a long one.
	if rs[0].DiffTuples > rs[1].DiffTuples {
		t.Fatalf("short outage diff %d > long outage diff %d",
			rs[0].DiffTuples, rs[1].DiffTuples)
	}
}

func TestRunBulk(t *testing.T) {
	rs := RunBulk(tiny(), []int{50})
	if len(rs) != 1 || rs[0].BatchSize == 0 {
		t.Fatalf("bulk: %+v", rs)
	}
	if rs[0].BulkMillis <= 0 || rs[0].OneByOneMS <= 0 {
		t.Fatalf("timings: %+v", rs)
	}
}

func TestRunPredictivePoint(t *testing.T) {
	r := RunPredictivePoint(tiny())
	if r.Updates <= 0 || r.AnswerTuples <= 0 {
		t.Fatalf("no predictive activity: %+v", r)
	}
	if r.IncrementalKB <= 0 || r.IncrementalKB >= r.CompleteKB {
		t.Fatalf("incremental %v KB, complete %v KB: want 0 < incremental < complete",
			r.IncrementalKB, r.CompleteKB)
	}

	// Determinism: same config, same numbers (wall time excluded).
	r2 := RunPredictivePoint(tiny())
	r.StepMillis, r2.StepMillis = 0, 0
	if r != r2 {
		t.Fatalf("non-deterministic: %+v vs %+v", r, r2)
	}
}
