package core

import (
	"testing"

	"cqp/internal/geo"
)

// TestTrajectoryRepresentation exercises the paper's trajectory movement
// representation end to end: a route-planned object reports timed
// waypoints and predictive queries evaluate against the polyline.
func TestTrajectoryRepresentation(t *testing.T) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8, PredictiveHorizon: 100})

	// A delivery van: east along y=1, then north along x=9.
	e.ReportObject(ObjectUpdate{
		ID: 1, Kind: Predictive, Loc: geo.Pt(1, 1), T: 0,
		Waypoints: []geo.TimedPoint{
			{P: geo.Pt(9, 1), T: 20},
			{P: geo.Pt(9, 9), T: 40},
		},
	})
	// Zone A straddles the first leg; zone B the second; zone C neither.
	e.ReportQuery(QueryUpdate{ID: 1, Kind: PredictiveRange, Region: geo.R(4, 0.5, 6, 1.5), T1: 5, T2: 15})
	e.ReportQuery(QueryUpdate{ID: 2, Kind: PredictiveRange, Region: geo.R(8.5, 4, 9.5, 6), T1: 25, T2: 35})
	e.ReportQuery(QueryUpdate{ID: 3, Kind: PredictiveRange, Region: geo.R(1, 8, 3, 9), T1: 0, T2: 100})
	got := e.Step(0)
	want := []Update{{1, 1, true}, {2, 1, true}}
	if !updatesEqual(got, want) {
		t.Fatalf("got %v want %v", sortUpdates(got), sortUpdates(want))
	}

	// A window that misses the van's passage through zone A.
	e.ReportQuery(QueryUpdate{ID: 1, Kind: PredictiveRange, Region: geo.R(4, 0.5, 6, 1.5), T1: 15, T2: 18, T: 1})
	got = e.Step(1)
	if !updatesEqual(got, []Update{{1, 1, false}}) {
		t.Fatalf("window shift: %v", got)
	}

	// The van re-plans: turns around at (5,1) heading back west. Zone B is
	// no longer crossed — and the return trip passes back through zone A
	// exactly during its (shifted) window, so Q1 regains the van.
	e.ReportObject(ObjectUpdate{
		ID: 1, Kind: Predictive, Loc: geo.Pt(5, 1), T: 10,
		Waypoints: []geo.TimedPoint{{P: geo.Pt(1, 1), T: 30}},
	})
	got = e.Step(10)
	want = []Update{{2, 1, false}, {1, 1, true}}
	if !updatesEqual(got, want) {
		t.Fatalf("re-plan: got %v want %v", sortUpdates(got), sortUpdates(want))
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

func TestTrajectoryDestinationHoldMatches(t *testing.T) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8, PredictiveHorizon: 100})
	// The object arrives inside the region at t=10 and parks there; a
	// much later window must still match (the hold is part of the
	// prediction).
	e.ReportObject(ObjectUpdate{
		ID: 1, Kind: Predictive, Loc: geo.Pt(0, 0), T: 0,
		Waypoints: []geo.TimedPoint{{P: geo.Pt(5, 5), T: 10}},
	})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: PredictiveRange, Region: geo.R(4, 4, 6, 6), T1: 50, T2: 60})
	got := e.Step(0)
	if !updatesEqual(got, []Update{{1, 1, true}}) {
		t.Fatalf("hold: %v", got)
	}
}

func TestInvalidTrajectoryRejected(t *testing.T) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2, 2)})
	e.Step(0)

	// Non-increasing waypoint times: the report is dropped entirely (the
	// object is not created).
	e.ReportObject(ObjectUpdate{
		ID: 1, Kind: Predictive, Loc: geo.Pt(1, 1), T: 10,
		Waypoints: []geo.TimedPoint{{P: geo.Pt(2, 2), T: 5}},
	})
	if got := e.Step(1); len(got) != 0 {
		t.Fatalf("invalid trajectory produced %v", got)
	}
	if e.NumObjects() != 0 {
		t.Fatalf("invalid trajectory created object")
	}

	// A later valid report works normally.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Predictive, Loc: geo.Pt(1, 1), T: 12,
		Waypoints: []geo.TimedPoint{{P: geo.Pt(2, 2), T: 15}}})
	got := e.Step(2)
	if !updatesEqual(got, []Update{{1, 1, true}}) {
		t.Fatalf("valid follow-up: %v", got)
	}
}
