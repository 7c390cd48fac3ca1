package core

import (
	"math"
	"testing"

	"cqp/internal/geo"
)

func TestKNNStarvedThenFed(t *testing.T) {
	e := newTestEngine(t)
	// k=3 with no objects at all: empty answer, no updates.
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(5, 5), K: 3})
	if got := e.Step(0); len(got) != 0 {
		t.Fatalf("starved query emitted %v", got)
	}

	// Objects trickle in anywhere in the space; a starved kNN query must
	// capture each one no matter how far away it appears.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(9.9, 9.9)})
	got := e.Step(1)
	if !updatesEqual(got, []Update{{1, 1, true}}) {
		t.Fatalf("first feed: %v", got)
	}
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(0.1, 0.1)})
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(5, 9)})
	got = e.Step(2)
	if !updatesEqual(got, []Update{{1, 2, true}, {1, 3, true}}) {
		t.Fatalf("second feed: %v", got)
	}

	// A fourth object closer than all three displaces the farthest.
	e.ReportObject(ObjectUpdate{ID: 4, Kind: Moving, Loc: geo.Pt(5, 5.1)})
	got = e.Step(3)
	if len(got) != 2 {
		t.Fatalf("displacement: %v", got)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

func TestKNNMemberRemovalRefills(t *testing.T) {
	e := newTestEngine(t)
	for i := ObjectID(1); i <= 5; i++ {
		e.ReportObject(ObjectUpdate{ID: i, Kind: Moving, Loc: geo.Pt(float64(i), 5)})
	}
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(0, 5), K: 2})
	e.Step(0) // answer = {1, 2}

	// Removing a member must refill from the next nearest.
	e.ReportObject(ObjectUpdate{ID: 1, Remove: true})
	got := e.Step(1)
	want := []Update{{1, 1, false}, {1, 3, true}}
	if !updatesEqual(got, want) {
		t.Fatalf("refill: got %v want %v", sortUpdates(got), sortUpdates(want))
	}

	// Removing below k leaves a short answer.
	e.ReportObject(ObjectUpdate{ID: 2, Remove: true})
	e.ReportObject(ObjectUpdate{ID: 3, Remove: true})
	e.ReportObject(ObjectUpdate{ID: 4, Remove: true})
	e.ReportObject(ObjectUpdate{ID: 5, Remove: true})
	e.Step(2)
	ans, _ := e.Answer(1)
	if len(ans) != 0 {
		t.Fatalf("after removing everything: %v", ans)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

func TestKNNMovingFocal(t *testing.T) {
	e := newTestEngine(t)
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 5)})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(9, 5)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(0, 5), K: 1})
	got := e.Step(0)
	if !updatesEqual(got, []Update{{1, 1, true}}) {
		t.Fatalf("initial: %v", got)
	}

	// The query's client moves across the space: the answer flips.
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(10, 5), K: 1})
	got = e.Step(1)
	want := []Update{{1, 1, false}, {1, 2, true}}
	if !updatesEqual(got, want) {
		t.Fatalf("focal move: got %v want %v", sortUpdates(got), sortUpdates(want))
	}

	// Changing k re-evaluates.
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(10, 5), K: 2})
	got = e.Step(2)
	if !updatesEqual(got, []Update{{1, 1, true}}) {
		t.Fatalf("k change: %v", got)
	}
}

func TestKNNUntouchedByFarMovement(t *testing.T) {
	e := newTestEngine(t)
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(5, 5)})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(5.2, 5)})
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(9, 9)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(5, 5), K: 2})
	e.Step(0)
	before := e.Stats().KNNRecomputes

	// A non-member moving far outside the circle must not trigger an
	// exact re-search (the dirty-circle pruning).
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(9.5, 9.5), T: 1})
	if got := e.Step(1); len(got) != 0 {
		t.Fatalf("far movement emitted %v", got)
	}
	if after := e.Stats().KNNRecomputes; after != before {
		t.Fatalf("far movement caused %d recomputes", after-before)
	}

	// A non-member entering the circle does.
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(5.1, 5), T: 2})
	got := e.Step(2)
	want := []Update{{1, 2, false}, {1, 3, true}}
	if !updatesEqual(got, want) {
		t.Fatalf("intrusion: got %v want %v", sortUpdates(got), sortUpdates(want))
	}
	if after := e.Stats().KNNRecomputes; after == before {
		t.Fatal("intrusion did not recompute")
	}
}

func TestKNNRadiusAccessor(t *testing.T) {
	e := newTestEngine(t)
	if _, ok := e.KNNRadius(1); ok {
		t.Error("unknown query radius should be !ok")
	}
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 1, 1)})
	e.Step(0)
	if _, ok := e.KNNRadius(1); ok {
		t.Error("range query radius should be !ok")
	}
	e.ReportQuery(QueryUpdate{ID: 2, Kind: KNN, Focal: geo.Pt(0, 0), K: 1})
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(3, 4)})
	e.Step(1)
	r, ok := e.KNNRadius(2)
	if !ok || math.Abs(r-5) > 1e-9 {
		t.Fatalf("radius = %v, %v", r, ok)
	}
}

func TestKNNManyTies(t *testing.T) {
	e := newTestEngine(t)
	// Four objects equidistant from the focal point, reported out of ID
	// order: k=2 picks the two smallest IDs, the oracle's answer.
	e.ReportObject(ObjectUpdate{ID: 4, Kind: Moving, Loc: geo.Pt(5, 6)})
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(5, 4)})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(6, 5)})
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(4, 5)})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(5, 5), K: 2})
	e.Step(0)
	if got, _ := e.Answer(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("tie answer %v, want [1 2]", got)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}
