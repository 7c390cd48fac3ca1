package scenario

import (
	"fmt"
	"slices"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// Script is a literal scenario: hand-written batches, each with the
// expectations it pins, over the tiling whose seams it exercises.
type Script struct {
	Name       string
	Opt        core.Options
	Rows, Cols int
	Batches    []Batch
}

// Options returns the script's engine options.
func (s *Script) Options() core.Options { return s.Opt }

// Next pops the script's next batch, every report stamped with the
// batch's time.
func (s *Script) Next() (Batch, bool) {
	if len(s.Batches) == 0 {
		return Batch{}, false
	}
	b := s.Batches[0]
	s.Batches = s.Batches[1:]
	for i := range b.Objects {
		b.Objects[i].T = b.T
	}
	for i := range b.Queries {
		b.Queries[i].T = b.T
	}
	return b, true
}

// Lookup returns a fresh copy of the named script.
func Lookup(name string) *Script {
	for _, s := range Scripts() {
		if s.Name == name {
			return s
		}
	}
	panic("scenario: no script " + name)
}

// Report and expectation shorthands for the scripts.
type (
	objs []core.ObjectUpdate
	qrys []core.QueryUpdate
	ids  []core.ObjectID
	upds []core.Update
)

func at(id core.ObjectID, x, y float64) core.ObjectUpdate {
	return core.ObjectUpdate{ID: id, Kind: core.Moving, Loc: geo.Pt(x, y)}
}

func rng(q core.QueryID, r geo.Rect) core.QueryUpdate {
	return core.QueryUpdate{ID: q, Kind: core.Range, Region: r}
}

func knn(q core.QueryID, x, y float64, k int) core.QueryUpdate {
	return core.QueryUpdate{ID: q, Kind: core.KNN, Focal: geo.Pt(x, y), K: k}
}

func plus(q core.QueryID, o core.ObjectID) core.Update {
	return core.Update{Query: q, Object: o, Positive: true}
}
func minus(q core.QueryID, o core.ObjectID) core.Update { return core.Update{Query: q, Object: o} }

// Scripts returns fresh copies of every literal scenario. Each pins a
// seam of the sharded merge or of the commit protocol; the driver runs
// them on every tier.
func Scripts() []*Script {
	ten := core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}
	script := func(name string, rows, cols int, bs ...Batch) *Script {
		return &Script{Name: name, Opt: ten, Rows: rows, Cols: cols, Batches: bs}
	}
	removeReadd := func(name string, region geo.Rect) *Script {
		// An object removed and re-reported in one step, staying inside
		// the query, has moved: no update, answer kept, whether the query
		// sits on one tile of a 1×2 split or spans both.
		return script(name, 1, 2,
			Batch{T: 0, Objects: objs{at(7, 2.5, 5)}, Queries: qrys{rng(1, region)}, Check: want{answers: answers{1: {7}}}.check},
			Batch{T: 1, Objects: objs{{ID: 7, Remove: true}, at(7, 2.5, 5)},
				Check: want{stream: upds{}, answers: answers{1: {7}}}.check})
	}
	multiMove := script("multi-move-batch", 2, 2,
		// A query that moves twice in one batch commits the answer as of
		// the last completed step — what the client holds — never an
		// intermediate answer no step streamed.
		Batch{T: 0, Objects: objs{at(1, 10, 10), at(2, 20, 10), at(3, 30, 10), at(4, 40, 10), at(5, 50, 10), at(6, 60, 10)},
			Queries: qrys{rng(1, geo.R(0, 0, 25, 25))}},
		Batch{T: 1, Queries: qrys{rng(1, geo.R(30, 0, 65, 25)), rng(1, geo.R(30, 0, 45, 25))},
			Check: want{committed: ids{1, 2}, recovery: upds{minus(1, 1), minus(1, 2), plus(1, 3), plus(1, 4)}}.check})
	multiMove.Opt.Bounds = geo.R(0, 0, 100, 100)
	return []*Script{
		// A kNN query re-kinded to a range and moved in one batch reads as
		// its last report: a fresh range query over an empty region.
		script("kind-change-then-move", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 1, 1)}, Queries: qrys{knn(1, 1, 1, 1)}},
			Batch{T: 1, Queries: qrys{rng(1, geo.R(0, 0, 2, 2)), rng(1, geo.R(6, 6, 8, 8))},
				Check: want{stream: upds{}, answers: answers{1: {}}}.check}),
		// A kNN query re-kinded to a range and back in one batch is still
		// torn down — the client dropped its answer on each change — so the
		// committed answer is empty and the stream rebuilds from empty.
		script("kind-change-reverted", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 1, 1), at(2, 9, 9)}, Queries: qrys{knn(1, 1, 1, 1)}, Commit: []core.QueryID{1}},
			Batch{T: 1, Queries: qrys{rng(1, geo.R(8, 8, 10, 10)), knn(1, 1, 1, 1)},
				Check: want{stream: upds{plus(1, 1)}, answers: answers{1: {1}}, committed: ids{}}.check}),
		multiMove,
		removeReadd("remove-readd-one-tile", geo.R(1, 4, 3, 6)),
		removeReadd("remove-readd-spanning", geo.R(2, 2, 8, 8)),
		// A range query spanning all four tiles holds each object once.
		script("range-across-tiles", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 2, 2), at(2, 8, 2), at(3, 2, 8), at(4, 8, 8), at(99, 9.8, 0.2)},
				Queries: qrys{rng(1, geo.R(1, 1, 9, 9))},
				Check:   want{stream: upds{plus(1, 1), plus(1, 2), plus(1, 3), plus(1, 4)}}.check}),
		// The k nearest of a focal point straddle all four tiles; a decoy
		// moving in displaces the k-th: one negative, one positive.
		script("knn-across-tiles", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 4.6, 4.6), at(2, 5.3, 4.7), at(3, 4.7, 5.2), at(4, 5.4, 5.4),
				at(5, 0.5, 0.5), at(6, 9.5, 0.5), at(7, 0.5, 9.5), at(8, 9.5, 9.5)},
				Queries: qrys{knn(1, 5, 5, 4)}, Check: want{answers: answers{1: {1, 2, 3, 4}}}.check},
			Batch{T: 1, Objects: objs{at(8, 5.1, 5.1)}, Check: want{stream: upds{minus(1, 4), plus(1, 8)}}.check}),
		// A kNN query with fewer objects than k holds them all and picks
		// up a later arrival anywhere in the space.
		script("knn-starved", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 1, 1)}, Queries: qrys{knn(1, 1, 1, 3)}, Check: want{answers: answers{1: {1}}}.check},
			Batch{T: 1, Objects: objs{at(2, 9.9, 9.9)}, Check: want{answers: answers{1: {1, 2}}}.check}),
		// A predictive object in tile 0 heading for tile 3 matches a
		// predictive range in tile 3 over the window it is there.
		script("predictive-across-tiles", 2, 2,
			Batch{T: 0, Objects: objs{{ID: 1, Kind: core.Predictive, Loc: geo.Pt(1, 1), Vel: geo.Vec(1, 1)}},
				Queries: qrys{{ID: 1, Kind: core.PredictiveRange, Region: geo.R(7, 7, 9, 9), T1: 6, T2: 8}},
				Check:   want{answers: answers{1: {1}}}.check}),
		// A range query registered and moved off its first region in one
		// batch nets out: its answer is empty.
		script("register-and-move", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 1, 1)}},
			Batch{T: 1, Queries: qrys{rng(1, geo.R(0, 0, 2, 2)), rng(1, geo.R(6, 6, 8, 8))},
				Check: want{answers: answers{1: {}}}.check}),
		// A range query moving from one tile to the other swaps members.
		script("query-move-across-tiles", 1, 2,
			Batch{T: 0, Objects: objs{at(1, 2, 5), at(2, 8, 5)}, Queries: qrys{rng(1, geo.R(1, 4, 3, 6))}, Check: want{answers: answers{1: {1}}}.check},
			Batch{T: 1, Queries: qrys{rng(1, geo.R(7, 4, 9, 6))}, Check: want{stream: upds{minus(1, 1), plus(1, 2)}}.check}),
		// An object leaving tile 0's query for tile 1's: exactly one
		// negative and one positive.
		script("migrate-between-disjoint", 1, 2,
			Batch{T: 0, Objects: objs{at(1, 2, 5)}, Queries: qrys{rng(1, geo.R(1, 4, 3, 6)), rng(2, geo.R(7, 4, 9, 6))},
				Check: want{stream: upds{plus(1, 1)}}.check},
			Batch{T: 1, Objects: objs{at(1, 8, 5)},
				Check: want{stream: upds{minus(1, 1), plus(2, 1)}, answers: answers{1: {}, 2: {1}}}.check}),
		// An object crossing tiles inside a query spanning both: the old
		// tile's negative and the new tile's positive cancel.
		script("migrate-within-spanning", 1, 2,
			Batch{T: 0, Objects: objs{at(1, 4, 5)}, Queries: qrys{rng(1, geo.R(2, 2, 8, 8))}},
			Batch{T: 1, Objects: objs{at(1, 6, 5)}, Check: want{stream: upds{}, answers: answers{1: {1}}}.check}),
		// An object crossing tiles and leaving a spanning query: exactly
		// one negative, no duplicate from the two tile streams.
		script("migrate-out-of-spanning", 1, 2,
			Batch{T: 0, Objects: objs{at(1, 4, 5)}, Queries: qrys{rng(1, geo.R(2, 2, 8, 8))}},
			Batch{T: 1, Objects: objs{at(1, 9.5, 5)}, Check: want{stream: upds{minus(1, 1)}}.check}),
		// A query removed in the batch its member crosses a seam streams
		// nothing for the move, and a negative only for a member removed.
		script("migrate-in-removed-query", 1, 2,
			Batch{T: 0, Objects: objs{at(1, 4, 5), at(2, 4, 4)}, Queries: qrys{rng(1, geo.R(2, 2, 8, 8))}},
			Batch{T: 1, Objects: objs{at(1, 6, 5), {ID: 2, Remove: true}}, Queries: qrys{{ID: 1, Remove: true}},
				Check: want{stream: upds{minus(1, 2)}}.check}),
		// Objects migrating in opposite directions in one step resolve
		// independently: 1 and 2 swap tiles inside the query, 3 enters it.
		script("migrate-chain", 1, 2,
			Batch{T: 0, Objects: objs{at(1, 4, 5), at(2, 6, 5), at(3, 9, 5)}, Queries: qrys{rng(1, geo.R(2, 2, 8, 8))}},
			Batch{T: 1, Objects: objs{at(1, 6, 4), at(2, 4, 4), at(3, 3, 5)},
				Check: want{stream: upds{plus(1, 3)}, answers: answers{1: {1, 2, 3}}}.check}),
		// A kNN member crossing tiles while still the nearest must not
		// flicker out of the answer.
		script("migrate-knn-member", 1, 2,
			Batch{T: 0, Objects: objs{at(1, 4.8, 5), at(2, 9, 9)}, Queries: qrys{knn(1, 5, 5, 1)}, Check: want{answers: answers{1: {1}}}.check},
			Batch{T: 1, Objects: objs{at(1, 5.2, 5)}, Check: want{stream: upds{}, answers: answers{1: {1}}}.check}),
		// The out-of-sync protocol: commit, miss two updates, recover the
		// diff; then no recovery for an unknown query.
		script("commit-recover", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 2, 2), at(2, 8, 8)}, Queries: qrys{rng(1, geo.R(1, 1, 9, 9))}, Commit: []core.QueryID{1}},
			Batch{T: 1, Objects: objs{at(1, 0.1, 0.1), at(3, 5, 5)}, Check: func(p Target, _ []core.Update) error {
				if err := (want{committed: ids{1, 2}, recovery: upds{minus(1, 1), plus(1, 3)}}).check(p, nil); err != nil {
					return err
				}
				if _, ok := p.Recover(42); ok {
					return fmt.Errorf("Recover misjudged which queries exist")
				}
				return nil
			}}),
		// Both sides of a restart. Query 1 commits {1, 2}, then object 1
		// leaves it: its client's snapshot is still its last commit, so
		// it recovers by diff, −1. Query 2 commits {3}, object 4 enters,
		// and query 2 reports: that commit of {3, 4} is implicit and
		// lives in memory only, so a restarted server heals it with the
		// whole answer.
		script("restart-recover", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 1, 1), at(2, 1.5, 1.5), at(3, 9, 9)},
				Queries: qrys{rng(1, geo.R(0, 0, 2, 2)), rng(2, geo.R(8, 8, 10, 10))}, Commit: []core.QueryID{1, 2}},
			Batch{T: 1, Objects: objs{at(1, 5, 5), at(4, 9.5, 9.5)}},
			Batch{T: 2, Queries: qrys{rng(2, geo.R(8, 8, 10, 10))}},
			Batch{T: 3, Restart: true, Check: want{stream: upds{}, answers: answers{1: {2}, 2: {3, 4}}, committed: ids{2}}.check}),
		// A query moving in the batch that removes its member commits the
		// answer its client held, the member included: recovery retracts it.
		script("move-with-removal", 2, 2,
			Batch{T: 0, Objects: objs{at(1, 5, 5), at(2, 5.5, 5.5)}, Queries: qrys{rng(1, geo.R(4, 4, 6, 6))}},
			Batch{T: 1, Objects: objs{{ID: 1, Remove: true}}, Queries: qrys{rng(1, geo.R(4, 4, 6.5, 6.5))},
				Check: want{committed: ids{1, 2}, recovery: upds{minus(1, 1)}}.check}),
		// A seeded committed answer holding a duplicate is kept as a set:
		// committed answer, checksum and recovery diff agree. Seeding is
		// the Protocol's own call, so this script needs one.
		script("seed-committed", 2, 2,
			Batch{T: 0, Objects: objs{at(5, 5, 5)}, Queries: qrys{rng(1, geo.R(4, 4, 6, 6))}, Check: func(t Target, _ []core.Update) error {
				p, ok := t.(*core.Protocol)
				if !ok {
					return fmt.Errorf("seed-committed needs a *core.Protocol, got %T", t)
				}
				if p.SeedCommitted(42, nil) || !p.SeedCommitted(1, ids{3, 3, 5}) {
					return fmt.Errorf("SeedCommitted misjudged which queries exist")
				}
				if cs, _ := p.CommittedChecksum(1); cs != core.ChecksumIDs(ids{3, 5}) {
					return fmt.Errorf("committed checksum %x, want that of [3 5]", cs)
				}
				return want{committed: ids{3, 5}, recovery: upds{minus(1, 3)}}.check(p, nil)
			}}),
	}
}

type answers map[core.QueryID][]core.ObjectID

// want is a batch's expectations; a nil part is not checked.
type want struct {
	stream    []core.Update
	answers   answers
	committed []core.ObjectID // query 1's committed answer, before recovery
	recovery  []core.Update   // query 1's recovery diff, taken last
}

// check holds p to w; the committed answer only where p exposes it.
func (w want) check(p Target, stream []core.Update) error {
	if w.stream != nil && !slices.Equal(stream, w.stream) {
		return fmt.Errorf("stream %v, want %v", stream, w.stream)
	}
	for q, a := range w.answers {
		if got, _ := p.Answer(q); !slices.Equal(got, a) {
			return fmt.Errorf("answer of %d = %v, want %v", q, got, a)
		}
	}
	if c, ok := p.(committer); ok && w.committed != nil {
		if ca, _ := c.CommittedAnswer(1); !slices.Equal(ca, w.committed) {
			return fmt.Errorf("committed answer of 1 = %v, want %v", ca, w.committed)
		}
	}
	if w.recovery != nil {
		if rec, _ := p.Recover(1); !slices.Equal(rec, w.recovery) {
			return fmt.Errorf("recovery of 1 = %v, want %v", rec, w.recovery)
		}
	}
	return nil
}
