package snapshot

import (
	"math/rand"
	"slices"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(core.Options{}); err == nil {
		t.Error("empty bounds should fail")
	}
}

func TestSnapshotRange(t *testing.T) {
	e, err := New(core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8})
	if err != nil {
		t.Fatal(err)
	}
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(3, 3)})
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(8, 8)})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(2, 2, 4, 4)})
	snaps := e.Step(0)
	if len(snaps) != 1 || snaps[0].Query != 1 {
		t.Fatalf("snaps = %+v", snaps)
	}
	if len(snaps[0].Objects) != 1 || snaps[0].Objects[0] != 1 {
		t.Fatalf("answer = %v", snaps[0].Objects)
	}

	// Unlike the incremental engine, a no-change step re-reports the full
	// answer.
	snaps = e.Step(1)
	if len(snaps) != 1 || len(snaps[0].Objects) != 1 {
		t.Fatalf("re-evaluation should return complete answers: %+v", snaps)
	}

	// Object moves out; removal reflected.
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(9, 9)})
	snaps = e.Step(2)
	if len(snaps[0].Objects) != 0 {
		t.Fatalf("after departure: %v", snaps[0].Objects)
	}
	e.ReportObject(core.ObjectUpdate{ID: 1, Remove: true})
	e.ReportQuery(core.QueryUpdate{ID: 1, Remove: true})
	if snaps = e.Step(3); len(snaps) != 0 {
		t.Fatalf("after removal: %+v", snaps)
	}
	if e.NumObjects() != 1 || e.NumQueries() != 0 {
		t.Fatalf("counts: %d/%d", e.NumObjects(), e.NumQueries())
	}
}

func TestSnapshotKNNAndPredictive(t *testing.T) {
	e, err := New(core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8, PredictiveHorizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	e.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(2, 2)})
	e.ReportObject(core.ObjectUpdate{ID: 3, Kind: core.Moving, Loc: geo.Pt(9, 9)})
	e.ReportObject(core.ObjectUpdate{ID: 4, Kind: core.Predictive, Loc: geo.Pt(0, 5), Vel: geo.Vec(1, 0), T: 0})
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(0, 0), K: 2})
	e.ReportQuery(core.QueryUpdate{ID: 2, Kind: core.PredictiveRange, Region: geo.R(4, 4, 6, 6), T1: 4, T2: 6})
	snaps := e.Step(0)
	if len(snaps) != 2 {
		t.Fatalf("snaps = %+v", snaps)
	}
	knn := snaps[0].Objects
	if len(knn) != 2 || knn[0] != 1 || knn[1] != 2 {
		t.Fatalf("knn = %v", knn)
	}
	pred := snaps[1].Objects
	if len(pred) != 1 || pred[0] != 4 {
		t.Fatalf("predictive = %v", pred)
	}
}

// TestSnapshotMatchesIncrementalOracle runs both engines over an
// identical random workload and asserts the snapshot answers equal the
// incremental engine's maintained answers every step. The snapshot
// engine re-evaluates from scratch, so it is the independent check on
// core's incremental Range and PredictiveRange answers.
func TestSnapshotMatchesIncrementalOracle(t *testing.T) {
	cases := []struct {
		name    string
		seed    int64
		opt     core.Options
		objects int // bootstrapped before the queries
		queries int
		steps   int
		query   func(rng *rand.Rand) core.QueryUpdate
		object  func(rng *rand.Rand, now float64) core.ObjectUpdate
	}{
		{
			// Stationary range queries over moving objects.
			name: "range", seed: 5,
			opt:     core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 8},
			objects: 50, queries: 10, steps: 50,
			query: func(rng *rand.Rand) core.QueryUpdate {
				return core.QueryUpdate{Kind: core.Range,
					Region: geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.2)}
			},
			object: func(rng *rand.Rand, now float64) core.ObjectUpdate {
				return core.ObjectUpdate{Kind: core.Moving,
					Loc: geo.Pt(rng.Float64(), rng.Float64()), T: now}
			},
		},
		{
			// Predictive range queries over objects reporting velocities.
			name: "predictive", seed: 6,
			opt:     core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 8, PredictiveHorizon: 100},
			queries: 15, steps: 30,
			query: func(rng *rand.Rand) core.QueryUpdate {
				return core.QueryUpdate{Kind: core.PredictiveRange,
					Region: geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.1+rng.Float64()*0.2),
					T1:     rng.Float64() * 20, T2: 20 + rng.Float64()*30}
			},
			object: func(rng *rand.Rand, now float64) core.ObjectUpdate {
				return core.ObjectUpdate{Kind: core.Predictive,
					Loc: geo.Pt(rng.Float64(), rng.Float64()),
					Vel: geo.Vec(rng.Float64()*0.02-0.01, rng.Float64()*0.02-0.01),
					T:   now}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			inc := core.MustNewEngine(c.opt)
			snap, err := New(c.opt)
			if err != nil {
				t.Fatal(err)
			}
			report := func(u core.ObjectUpdate) {
				inc.ReportObject(u)
				snap.ReportObject(u)
			}
			for i := 1; i <= c.objects; i++ {
				u := c.object(rng, 0)
				u.ID = core.ObjectID(i)
				report(u)
			}
			for j := 1; j <= c.queries; j++ {
				u := c.query(rng)
				u.ID = core.QueryID(j)
				inc.ReportQuery(u)
				snap.ReportQuery(u)
			}

			checked := 0
			for step := 0; step < c.steps; step++ {
				now := float64(step)
				for n := rng.Intn(10); n > 0; n-- {
					id := core.ObjectID(1 + rng.Intn(50))
					u := c.object(rng, now)
					u.ID = id
					report(u)
				}
				inc.Step(now)
				for _, s := range snap.Step(now) {
					want, _ := inc.Answer(s.Query)
					if !slices.Equal(want, s.Objects) {
						t.Fatalf("step %d query %d: snapshot %v incremental %v", step, s.Query, s.Objects, want)
					}
					checked += len(want)
				}
			}
			if checked == 0 {
				t.Fatal("no query ever had a non-empty answer")
			}
		})
	}
}
