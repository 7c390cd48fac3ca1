package core

import (
	"slices"
	"testing"

	"cqp/internal/geo"
)

// TestRecoveryAcrossQueryKinds verifies Commit/Recover for kNN and
// predictive queries, not just ranges.
func TestRecoveryAcrossQueryKinds(t *testing.T) {
	e := NewProtocol(MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8, PredictiveHorizon: 100}))
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 1)})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(2, 2)})
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Predictive, Loc: geo.Pt(0, 5), Vel: geo.Vec(0.5, 0), T: 0})
	e.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(0, 0), K: 1})
	e.ReportQuery(QueryUpdate{ID: 2, Kind: PredictiveRange, Region: geo.R(4, 4, 6, 6), T1: 8, T2: 12})
	e.Step(0)
	e.Commit(1)
	e.Commit(2)

	// Changes while "disconnected": the kNN answer flips to object 2, the
	// predictive answer empties (object 3 turns away).
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(9, 9), T: 1})
	e.ReportObject(ObjectUpdate{ID: 3, Kind: Predictive, Loc: geo.Pt(2, 5), Vel: geo.Vec(0, 1), T: 1})
	e.Step(1)

	rec, ok := e.Recover(1)
	if !ok {
		t.Fatal("Recover(knn) failed")
	}
	want := []Update{{1, 1, false}, {1, 2, true}}
	if !updatesEqual(rec, want) {
		t.Fatalf("knn recovery: got %v want %v", sortUpdates(rec), sortUpdates(want))
	}
	rec, _ = e.Recover(2)
	if !updatesEqual(rec, []Update{{2, 3, false}}) {
		t.Fatalf("predictive recovery: %v", rec)
	}

	// Checksums agree with the recovered state.
	ca, _ := e.CommittedChecksum(1)
	aa, _ := e.AnswerChecksum(1)
	if ca != aa {
		t.Fatal("post-recovery checksums diverge")
	}
}

// TestChecksumProperties pins the checksum's order independence,
// sensitivity and literal values. A client and the server fold their
// checksums in different processes, so the mix must be a pure function
// of the IDs: a per-process salt would pass every in-process
// comparison and turn every reconnect into a full-answer heal.
func TestChecksumProperties(t *testing.T) {
	a := ChecksumIDs([]ObjectID{1, 2, 3})
	b := ChecksumIDs([]ObjectID{3, 1, 2})
	if a != b {
		t.Error("checksum is order dependent")
	}
	for _, c := range []struct {
		ids  []ObjectID
		want uint64
	}{
		{[]ObjectID{1, 2, 3}, 0x1b590cd64e9485e2},
		{[]ObjectID{0xfedcba9876543210}, 0x7ae893b5e32fee86},
	} {
		if got := ChecksumIDs(c.ids); got != c.want {
			t.Errorf("ChecksumIDs(%#x) = %#x, want %#x", c.ids, got, c.want)
		}
	}
	if a == ChecksumIDs([]ObjectID{1, 2}) {
		t.Error("checksum insensitive to membership")
	}
	if ChecksumIDs(nil) != 0 {
		t.Error("empty checksum should be 0")
	}
	if _, ok := MustNewEngine(Options{Bounds: geo.R(0, 0, 1, 1)}).AnswerChecksum(9); ok {
		t.Error("checksum of unknown query should be !ok")
	}
}

// TestProtocolAutoCommitRule scripts each case of the implicit commit a
// query report makes.
func TestProtocolAutoCommitRule(t *testing.T) {
	p := NewProtocol(MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}))
	committed := func(want ...ObjectID) {
		t.Helper()
		got, ok := p.CommittedAnswer(1)
		if !ok || len(got) != len(want) {
			t.Fatalf("committed = %v (%v), want %v", got, ok, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("committed = %v, want %v", got, want)
			}
		}
	}
	p.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 1)})
	p.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(2, 2)})
	p.ReportObject(ObjectUpdate{ID: 3, Kind: Moving, Loc: geo.Pt(3, 3)})
	p.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 4, 4)})
	p.Step(0)
	committed() // a first registration commits the empty answer

	// A move commits the answer as of the last step, the one its client
	// held when it reported: with the object removed in the same batch,
	// whose removal the client cannot know of. Recovery retracts it.
	p.ReportObject(ObjectUpdate{ID: 1, Remove: true})
	p.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2.5, 2.5)})
	p.Step(1)
	committed(1, 2, 3)
	if diff, _ := p.Recover(1); !slices.Equal(diff, []Update{{Query: 1, Object: 1}, {Query: 1, Object: 3}}) {
		t.Fatalf("recovery = %v, want [(Q1, -O1) (Q1, -O3)]", diff)
	}
	committed(2)

	// A kind change commits the empty answer, however many reports follow.
	p.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(2, 2), K: 1})
	p.ReportQuery(QueryUpdate{ID: 1, Kind: KNN, Focal: geo.Pt(3, 3), K: 1})
	p.Step(2)
	committed()

	// A removal forgets the query; a re-registration starts empty again.
	p.ReportQuery(QueryUpdate{ID: 1, Remove: true})
	p.Step(3)
	if _, ok := p.CommittedAnswer(1); ok {
		t.Fatal("removed query still has a committed answer")
	}
	p.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 4, 4)})
	p.Step(4)
	p.Commit(1)
	committed(2, 3)
	p.ReportQuery(QueryUpdate{ID: 1, Remove: true})
	p.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 4, 4)})
	p.Step(5)
	committed()

	// A report of an unknown kind displaces nothing: the move before it
	// in the batch stands and commits.
	p.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 2.5, 2.5)})
	p.ReportQuery(QueryUpdate{ID: 1, Kind: QueryKind(9), Region: geo.R(0, 0, 4, 4)})
	p.Step(6)
	committed(2, 3)
	if ans, _ := p.Answer(1); len(ans) != 1 || ans[0] != 2 {
		t.Fatalf("answer = %v, want [2]", ans)
	}
}

// TestProtocolNetBatchReplays sends a predictive query's move, its
// removal and its re-registration in one batch. The batch reads as a
// removal and a fresh registration, so the step's stream rebuilds the
// new query's answer from empty, as a client that dropped the query
// replays it.
func TestProtocolNetBatchReplays(t *testing.T) {
	p := NewProtocol(MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8, PredictiveHorizon: 100}))
	p.ReportObject(ObjectUpdate{ID: 1, Kind: Predictive, Loc: geo.Pt(0, 5), Vel: geo.Vec(0.5, 0)})
	p.ReportQuery(QueryUpdate{ID: 1, Kind: PredictiveRange, Region: geo.R(8, 8, 9, 9), T1: 8, T2: 12})
	p.Step(0)

	p.ReportQuery(QueryUpdate{ID: 1, Kind: PredictiveRange, Region: geo.R(4, 4, 6, 6), T1: 8, T2: 12, T: 1})
	p.ReportQuery(QueryUpdate{ID: 1, Remove: true, T: 1})
	p.ReportQuery(QueryUpdate{ID: 1, Kind: PredictiveRange, Region: geo.R(8, 8, 9, 9), T1: 8, T2: 12, T: 1})
	view := map[ObjectID]struct{}{}
	for _, u := range p.Step(1) {
		if u.Positive {
			view[u.Object] = struct{}{}
		} else {
			delete(view, u.Object)
		}
	}
	ans, _ := p.Answer(1)
	if len(view) != len(ans) {
		t.Fatalf("stream replays to %v, answer %v", view, ans)
	}
	for _, o := range ans {
		if _, ok := view[o]; !ok {
			t.Fatalf("stream replays to %v, answer %v", view, ans)
		}
	}
}
