package core

import (
	"testing"

	"cqp/internal/geo"
)

// The tests in this file reproduce the worked examples of the paper
// (Figures 1–4) with concrete coordinates. The figures specify scenarios
// qualitatively; the coordinates below realize them so that the expected
// positive/negative update streams can be asserted tuple-by-tuple.

// TestPaperExampleI reproduces Example I (Figure 1): spatio-temporal range
// queries over nine objects p1..p9 (some stationary, some moving) and five
// continuous range queries Q1..Q5, three of which move between the two
// snapshots. Only the objects and queries that changed produce updates.
func TestPaperExampleI(t *testing.T) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8})

	// Snapshot at time T0 (Figure 1a).
	objs := map[ObjectID]struct {
		kind ObjectKind
		loc  geo.Point
	}{
		1: {Moving, geo.Pt(1.0, 8.0)},     // p1: inside Q1
		2: {Moving, geo.Pt(4.0, 4.0)},     // p2: inside Q3
		3: {Moving, geo.Pt(8.0, 8.0)},     // p3: inside Q5
		4: {Moving, geo.Pt(6.0, 1.0)},     // p4: free
		5: {Stationary, geo.Pt(1.5, 7.5)}, // p5: inside Q1
		6: {Stationary, geo.Pt(4.5, 4.5)}, // p6: inside Q3
		7: {Stationary, geo.Pt(3.5, 3.5)}, // p7: inside Q3
		8: {Stationary, geo.Pt(7.0, 2.0)}, // p8: free at T0
		9: {Stationary, geo.Pt(9.5, 0.5)}, // p9: never covered
	}
	for id, o := range objs {
		e.ReportObject(ObjectUpdate{ID: id, Kind: o.kind, Loc: o.loc, T: 0})
	}
	queries := map[QueryID]geo.Rect{
		1: geo.R(0.5, 7.0, 2.0, 8.5), // Q1 (moving): covers p1, p5
		2: geo.R(0.5, 0.5, 2.0, 2.0), // Q2 (stationary): empty
		3: geo.R(3.0, 3.0, 5.0, 5.0), // Q3 (moving): covers p2, p6, p7
		4: geo.R(8.5, 4.5, 9.5, 5.5), // Q4 (stationary): empty
		5: geo.R(7.5, 7.5, 8.5, 8.5), // Q5 (moving): covers p3
	}
	for id, r := range queries {
		e.ReportQuery(QueryUpdate{ID: id, Kind: Range, Region: r, T: 0})
	}
	got := e.Step(0)
	wantT0 := []Update{
		{1, 1, true}, {1, 5, true},
		{3, 2, true}, {3, 6, true}, {3, 7, true},
		{5, 3, true},
	}
	if !updatesEqual(got, wantT0) {
		t.Fatalf("T0: got %v want %v", sortUpdates(got), sortUpdates(wantT0))
	}

	// Snapshot at time T1 (Figure 1b): objects p1..p4 and queries Q1, Q3,
	// Q5 change. The black (stationary) objects stay put.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(2.5, 6.0), T: 1})          // p1 leaves Q1
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(2.5, 2.5), T: 1})          // p2 leaves Q3
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(8.0, 8.2), T: 1})          // p3 stays in moved Q5
	e.ReportObject(ObjectUpdate{ID: 4, Kind: Moving, Loc: geo.Pt(6.5, 1.8), T: 1})          // p4 still free
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(1.0, 6.5, 2.5, 8.0), T: 1}) // Q1 slides; keeps p5, loses p1
	e.ReportQuery(QueryUpdate{ID: 3, Kind: Range, Region: geo.R(4.0, 3.0, 6.0, 5.0), T: 1}) // Q3 slides; keeps p6, loses p7 (and p2 left)
	e.ReportQuery(QueryUpdate{ID: 5, Kind: Range, Region: geo.R(7.5, 7.7, 8.5, 8.7), T: 1}) // Q5 slides with p3; gains nothing
	got = e.Step(1)
	wantT1 := []Update{
		{1, 1, false}, // (Q1, -p1)
		{3, 2, false}, // (Q3, -p2)
		{3, 7, false}, // (Q3, -p7)
	}
	if !updatesEqual(got, wantT1) {
		t.Fatalf("T1: got %v want %v", sortUpdates(got), sortUpdates(wantT1))
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}

	// A second movement where a query gains an object it approaches.
	e.ReportQuery(QueryUpdate{ID: 4, Kind: Range, Region: geo.R(6.5, 1.5, 7.5, 2.5), T: 2}) // Q4 jumps onto p8 and p4
	got = e.Step(2)
	wantT2 := []Update{
		{4, 4, true}, {4, 8, true},
	}
	if !updatesEqual(got, wantT2) {
		t.Fatalf("T2: got %v want %v", sortUpdates(got), sortUpdates(wantT2))
	}
}

// TestPaperExampleII reproduces Example II (Figure 2): two continuous kNN
// queries with k = 3. Q1's third neighbor is displaced by an intruding
// object; Q2's member p7 walks away and is replaced by p8. Exactly two
// update tuples are reported per query.
func TestPaperExampleII(t *testing.T) {
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8})

	// Around focal F1 = (2,2): p2, p3, p4 near; p1 farther out at T0.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(3.5, 2.0), T: 0}) // p1: dist 1.5
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(2.0, 3.2), T: 0}) // p2: dist 1.2
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(1.5, 2.0), T: 0}) // p3: dist 0.5
	e.ReportObject(ObjectUpdate{ID: 4, Kind: Moving, Loc: geo.Pt(2.0, 1.2), T: 0}) // p4: dist 0.8
	// Around focal F2 = (7,7): p5, p6, p7 near; p8 farther at T0.
	e.ReportObject(ObjectUpdate{ID: 5, Kind: Moving, Loc: geo.Pt(7.0, 6.5), T: 0}) // p5: dist 0.5
	e.ReportObject(ObjectUpdate{ID: 6, Kind: Moving, Loc: geo.Pt(7.7, 7.0), T: 0}) // p6: dist 0.7
	e.ReportObject(ObjectUpdate{ID: 7, Kind: Moving, Loc: geo.Pt(7.0, 8.0), T: 0}) // p7: dist 1.0
	e.ReportObject(ObjectUpdate{ID: 8, Kind: Moving, Loc: geo.Pt(8.2, 7.0), T: 0}) // p8: dist 1.2

	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(2, 2), K: 3, T: 0})
	e.ReportQuery(QueryUpdate{ID: 2, Kind: KNN, Focal: geo.Pt(7, 7), K: 3, T: 0})

	got := e.Step(0)
	wantT0 := []Update{
		{1, 2, true}, {1, 3, true}, {1, 4, true}, // Q1 = {p2,p3,p4}
		{2, 5, true}, {2, 6, true}, {2, 7, true}, // Q2 = {p5,p6,p7}
	}
	if !updatesEqual(got, wantT0) {
		t.Fatalf("T0: got %v want %v", sortUpdates(got), sortUpdates(wantT0))
	}
	if r, _ := e.KNNRadius(1); r < 1.2-1e-9 || r > 1.2+1e-9 {
		t.Fatalf("Q1 radius = %v, want 1.2", r)
	}

	// T1: p1 intrudes into Q1's circle, invalidating the furthest neighbor
	// p2; p7 walks away from F2 and p8 becomes nearer.
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(2.6, 2.0), T: 1}) // now dist 0.6 < 1.2
	e.ReportObject(ObjectUpdate{ID: 7, Kind: Moving, Loc: geo.Pt(7.0, 9.5), T: 1}) // now dist 2.5 > 1.2
	got = e.Step(1)
	wantT1 := []Update{
		{1, 2, false}, {1, 1, true}, // (Q1, -p2), (Q1, +p1)
		{2, 7, false}, {2, 8, true}, // (Q2, -p7), (Q2, +p8)
	}
	if !updatesEqual(got, wantT1) {
		t.Fatalf("T1: got %v want %v", sortUpdates(got), sortUpdates(wantT1))
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExampleIII reproduces Example III (Figure 3): a predictive
// range query over five predictive objects that report location plus
// velocity at T0 = 0. The query asks for objects intersecting its region
// during the future window [8, 10]. At T1 three objects change velocity;
// only the changed information produces updates: (+p2) and (−p3), and
// nothing for p4 whose answer relationship is unchanged.
func TestPaperExampleIII(t *testing.T) {
	e := MustNewEngine(Options{
		Bounds:            geo.R(0, 0, 10, 10),
		GridN:             8,
		PredictiveHorizon: 20,
	})
	region := geo.R(6, 6, 8, 8)

	// T0 = 0. Future window [8,10].
	report := func(id ObjectID, loc geo.Point, vel geo.Vector, now float64) {
		e.ReportObject(ObjectUpdate{ID: id, Kind: Predictive, Loc: loc, Vel: vel, T: now})
	}
	report(1, geo.Pt(2, 2), geo.Vec(0.55, 0.55), 0) // at t=8: (6.4,6.4) → inside
	report(2, geo.Pt(1, 7), geo.Vec(0.2, 0), 0)     // at t∈[8,10]: x∈[2.6,3] → outside
	report(3, geo.Pt(7, 1), geo.Vec(0, 0.75), 0)    // at t=8: (7,7) → inside
	report(4, geo.Pt(9, 9), geo.Vec(0.1, 0.1), 0)   // moves away → outside
	report(5, geo.Pt(5, 5), geo.Vec(-0.3, -0.3), 0) // moves away → outside

	e.ReportQuery(QueryUpdate{ID: 1, Kind: PredictiveRange, Region: region, T1: 8, T2: 10, T: 0})
	got := e.Step(0)
	wantT0 := []Update{{1, 1, true}, {1, 3, true}} // answer = (p1, p3)
	if !updatesEqual(got, wantT0) {
		t.Fatalf("T0: got %v want %v", sortUpdates(got), sortUpdates(wantT0))
	}

	// T1 = 4: p1, p2, p3 report changed velocities; p4, p5 are silent.
	report(2, geo.Pt(1.8, 7), geo.Vec(1.3, -0.05), 4)   // at t=8: (7,6.8) → inside now
	report(3, geo.Pt(7, 4), geo.Vec(0, -0.5), 4)        // turns south → outside now
	report(1, geo.Pt(4.2, 4.2), geo.Vec(0.55, 0.55), 4) // same heading → still inside
	got = e.Step(4)
	wantT1 := []Update{
		{1, 2, true},  // (Q, +p2)
		{1, 3, false}, // (Q, -p3)
		// No tuple for p1: its information still yields the reported result.
	}
	if !updatesEqual(got, wantT1) {
		t.Fatalf("T1: got %v want %v", sortUpdates(got), sortUpdates(wantT1))
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

// TestPaperFig4OutOfSync reproduces the Figure 4 scenario: a client holds
// (p1, p2) at T1 and disconnects. While it is away the server's answer
// evolves to (p1, p3, p4). A naive incremental replay after reconnection
// would leave the client at the wrong (p1, p2, p3, p4); the committed-
// answer recovery protocol sends exactly (−p2, +p3, +p4).
func TestPaperFig4OutOfSync(t *testing.T) {
	e := NewProtocol(MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}))
	region := geo.R(4, 4, 6, 6)

	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(5, 5), T: 0})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(4.5, 4.5), T: 0})
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(1, 1), T: 0})
	e.ReportObject(ObjectUpdate{ID: 4, Kind: Moving, Loc: geo.Pt(9, 9), T: 0})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: region, T: 0})
	e.Step(1)

	// T1: the answer (p1, p2) is delivered and committed.
	if ok := e.Commit(1); !ok {
		t.Fatal("Commit failed")
	}
	client := map[ObjectID]struct{}{1: {}, 2: {}}

	// T2 (client disconnected): p2 leaves. The emitted negative update is
	// lost on the wire.
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(0.5, 9.5), T: 2})
	lost1 := e.Step(2)
	if !updatesEqual(lost1, []Update{{1, 2, false}}) {
		t.Fatalf("T2 updates: %v", lost1)
	}

	// T3 (still disconnected): p3 and p4 enter; also lost.
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(4.2, 5.0), T: 3})
	e.ReportObject(ObjectUpdate{ID: 4, Kind: Moving, Loc: geo.Pt(5.8, 5.2), T: 3})
	lost2 := e.Step(3)
	if !updatesEqual(lost2, []Update{{1, 3, true}, {1, 4, true}}) {
		t.Fatalf("T3 updates: %v", lost2)
	}

	// Naive replay of only the last batch would corrupt the client state
	// (this is the wrong answer the paper warns about).
	naive := map[ObjectID]struct{}{}
	for k := range client {
		naive[k] = struct{}{}
	}
	ApplyUpdates(naive, lost2, 1)
	if _, wrong := naive[2]; !wrong {
		t.Fatal("test setup: naive replay should retain the stale p2")
	}

	// T4: the client wakes up. Recovery sends the committed→current diff.
	rec, ok := e.Recover(1)
	if !ok {
		t.Fatal("Recover failed")
	}
	want := []Update{{1, 2, false}, {1, 3, true}, {1, 4, true}}
	if !updatesEqual(rec, want) {
		t.Fatalf("recovery: got %v want %v", sortUpdates(rec), sortUpdates(want))
	}
	ApplyUpdates(client, rec, 1)
	answer, _ := e.Answer(1)
	if len(client) != len(answer) {
		t.Fatalf("client has %d, server %d", len(client), len(answer))
	}
	for _, id := range answer {
		if _, ok := client[id]; !ok {
			t.Fatalf("client missing %d", id)
		}
	}

	// After recovery the committed answer equals the current one: an
	// immediate second recovery is empty.
	rec2, _ := e.Recover(1)
	if len(rec2) != 0 {
		t.Fatalf("second recovery should be empty, got %v", rec2)
	}

	// Unknown queries are reported as such.
	if _, ok := e.Recover(42); ok {
		t.Error("Recover(unknown) should report !ok")
	}
	if e.Commit(42) {
		t.Error("Commit(unknown) should report false")
	}
	if _, ok := e.CommittedAnswer(42); ok {
		t.Error("CommittedAnswer(unknown) should report !ok")
	}
	ca, _ := e.CommittedAnswer(1)
	if len(ca) != 3 {
		t.Fatalf("committed answer = %v", ca)
	}
}
