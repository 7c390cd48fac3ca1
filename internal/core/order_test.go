package core

import (
	"math/rand"
	"sort"
	"testing"

	"cqp/internal/geo"
)

// This file pins the order of the recovery surfaces (Recover,
// CommittedAnswer, checksums), which must not depend on map iteration
// order. The scenario driver (internal/testutil/scenario) checks every
// Step's canonical order and, between two engines, bit-identical
// streams; cqp-lint's maporder and determinism analyzers enforce the
// same invariants mechanically.

// TestRecoverPinnedOrder pins Recover's documented output order exactly:
// negatives in ascending ObjectID order first (the client prunes before
// it grows), then positives in ascending ObjectID order.
func TestRecoverPinnedOrder(t *testing.T) {
	eng := NewProtocol(MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 4}))
	const q = QueryID(1)
	eng.ReportQuery(QueryUpdate{ID: q, Kind: Range, Region: geo.R(0, 0, 5, 5)})
	for _, o := range []ObjectID{4, 2, 9, 7} {
		eng.ReportObject(ObjectUpdate{ID: o, Loc: geo.Pt(1, 1)})
	}
	eng.Step(1)
	if !eng.Commit(q) {
		t.Fatal("commit failed")
	}
	// Drift the answer: 2 and 7 leave, 12 and 11 arrive.
	eng.ReportObject(ObjectUpdate{ID: 2, Loc: geo.Pt(9, 9)})
	eng.ReportObject(ObjectUpdate{ID: 7, Remove: true})
	eng.ReportObject(ObjectUpdate{ID: 12, Loc: geo.Pt(2, 2)})
	eng.ReportObject(ObjectUpdate{ID: 11, Loc: geo.Pt(3, 3)})
	eng.Step(2)

	got, ok := eng.Recover(q)
	if !ok {
		t.Fatal("recover failed")
	}
	want := []Update{
		{Query: q, Object: 2, Positive: false},
		{Query: q, Object: 7, Positive: false},
		{Query: q, Object: 11, Positive: true},
		{Query: q, Object: 12, Positive: true},
	}
	if len(got) != len(want) {
		t.Fatalf("recover diff = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recover diff[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

// TestCommittedAnswerSorted pins CommittedAnswer's ascending order.
func TestCommittedAnswerSorted(t *testing.T) {
	eng := NewProtocol(MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 4}))
	const q = QueryID(3)
	eng.ReportQuery(QueryUpdate{ID: q, Kind: Range, Region: geo.R(0, 0, 5, 5)})
	for _, o := range []ObjectID{31, 5, 17, 2, 23} {
		eng.ReportObject(ObjectUpdate{ID: o, Loc: geo.Pt(1, 1)})
	}
	eng.Step(1)
	eng.Commit(q)
	got, ok := eng.CommittedAnswer(q)
	if !ok {
		t.Fatal("query lost")
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("committed answer not sorted: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("committed answer = %v, want 5 members", got)
	}
}

// TestChecksumOrderIndependent verifies the XOR fold behind the
// out-of-sync handshake really is permutation-invariant — the property
// the //lint:allow annotation on checksumSet claims.
func TestChecksumOrderIndependent(t *testing.T) {
	ids := []ObjectID{10, 99, 3, 42, 77, 5, 123456789}
	want := ChecksumIDs(ids)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		if got := ChecksumIDs(ids); got != want {
			t.Fatalf("checksum depends on order: %x != %x for %v", got, want, ids)
		}
	}
	// And the set-based checksum agrees with the slice-based one.
	eng := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 4})
	const q = QueryID(1)
	eng.ReportQuery(QueryUpdate{ID: q, Kind: Range, Region: geo.R(0, 0, 5, 5)})
	for _, o := range []ObjectID{10, 99, 3} {
		eng.ReportObject(ObjectUpdate{ID: o, Loc: geo.Pt(1, 1)})
	}
	eng.Step(1)
	ans, _ := eng.Answer(q)
	sum, ok := eng.AnswerChecksum(q)
	if !ok || sum != ChecksumIDs(ans) {
		t.Fatalf("AnswerChecksum %x != ChecksumIDs(answer) %x", sum, ChecksumIDs(ans))
	}
}

// TestRemoveObjectOrderedNegatives pins that a removed object's
// retraction stream arrives in ascending query order within the sorted
// step output.
func TestRemoveObjectOrderedNegatives(t *testing.T) {
	eng := MustNewEngine(Options{Bounds: geo.R(0, 0, 10, 10), GridN: 4})
	for _, q := range []QueryID{8, 1, 5, 3} {
		eng.ReportQuery(QueryUpdate{ID: q, Kind: Range, Region: geo.R(0, 0, 5, 5)})
	}
	eng.ReportObject(ObjectUpdate{ID: 42, Loc: geo.Pt(1, 1)})
	eng.Step(1)

	eng.ReportObject(ObjectUpdate{ID: 42, Remove: true})
	got := eng.Step(2)
	want := []Update{
		{Query: 1, Object: 42, Positive: false},
		{Query: 3, Object: 42, Positive: false},
		{Query: 5, Object: 42, Positive: false},
		{Query: 8, Object: 42, Positive: false},
	}
	if len(got) != len(want) {
		t.Fatalf("removal stream = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("removal stream[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSortUpdatesStable verifies that canonical sorting preserves the
// relative order of updates for the same (Query, Object) pair, so a
// −/+ sequence (leave then re-enter within one step) replays correctly.
func TestSortUpdatesStable(t *testing.T) {
	us := []Update{
		{Query: 2, Object: 7, Positive: true},
		{Query: 1, Object: 9, Positive: false},
		{Query: 1, Object: 9, Positive: true},
		{Query: 1, Object: 3, Positive: true},
	}
	SortUpdates(us)
	want := []Update{
		{Query: 1, Object: 3, Positive: true},
		{Query: 1, Object: 9, Positive: false},
		{Query: 1, Object: 9, Positive: true},
		{Query: 2, Object: 7, Positive: true},
	}
	for i := range want {
		if us[i] != want[i] {
			t.Fatalf("SortUpdates[%d] = %v, want %v (full: %v)", i, us[i], want[i], us)
		}
	}
}
