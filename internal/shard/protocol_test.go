package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// protocolPair wraps a single core.Engine and a four-tile sharded engine
// over the same options in core.Protocol, in that order.
func protocolPair(t *testing.T, opt core.Options) [2]*core.Protocol {
	t.Helper()
	sh, err := NewN(opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return [2]*core.Protocol{core.NewProtocol(core.MustNewEngine(opt)), core.NewProtocol(sh)}
}

var pairNames = [2]string{"core", "shard"}

// TestProtocolMultiMoveBatch scripts a query that moves twice in one
// batch. The implicit commit is the answer as of the last completed
// step — what the client actually holds — over every processor, never
// an intermediate answer no step ever streamed.
func TestProtocolMultiMoveBatch(t *testing.T) {
	for i, p := range protocolPair(t, core.Options{Bounds: geo.R(0, 0, 100, 100), GridN: 8}) {
		for o := 1; o <= 6; o++ {
			p.ReportObject(core.ObjectUpdate{ID: core.ObjectID(o), Kind: core.Moving, Loc: geo.Pt(float64(10*o), 10)})
		}
		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 25, 25)})
		p.Step(0)

		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(30, 0, 65, 25), T: 1})
		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(30, 0, 45, 25), T: 1})
		p.Step(1)

		if ca, _ := p.CommittedAnswer(1); !slices.Equal(ca, []core.ObjectID{1, 2}) {
			t.Fatalf("%s: committed = %v, want [1 2]", pairNames[i], ca)
		}
		rec, _ := p.Recover(1)
		want := []core.Update{
			{Query: 1, Object: 1, Positive: false},
			{Query: 1, Object: 2, Positive: false},
			{Query: 1, Object: 3, Positive: true},
			{Query: 1, Object: 4, Positive: true},
		}
		if !slices.Equal(rec, want) {
			t.Fatalf("%s: recovery = %v, want %v", pairNames[i], rec, want)
		}
	}
}

// TestProtocolDifferential runs one report stream through core.Protocol
// over a single engine and over a four-tile sharded engine and requires
// the two to agree on every query's answer, committed answer, committed
// checksum and recovery diff after every step. The stream carries
// object and query removals, kind changes, re-registrations of removed
// query IDs, and several reports of one query per batch.
func TestProtocolDifferential(t *testing.T) {
	t.Run("seed-committed", testSeedCommitted)
	t.Run("kind-change-then-move", testKindChangeThenMove)
	t.Run("kind-change-reverted", testKindChangeReverted)
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runProtocolDifferential(t, seed, 150) })
	}
}

// testSeedCommitted seeds a committed answer holding a duplicate: both
// processors must keep the seed as a set, so the committed answer, its
// checksum and the recovery diff agree.
func testSeedCommitted(t *testing.T) {
	for i, p := range protocolPair(t, core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}) {
		p.ReportObject(core.ObjectUpdate{ID: 5, Kind: core.Moving, Loc: geo.Pt(5, 5)})
		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)})
		p.Step(0)
		if p.SeedCommitted(42, nil) {
			t.Fatalf("%s: SeedCommitted of an unknown query succeeded", pairNames[i])
		}
		p.SeedCommitted(1, []core.ObjectID{3, 3, 5})

		ca, _ := p.CommittedAnswer(1)
		if !slices.Equal(ca, []core.ObjectID{3, 5}) {
			t.Fatalf("%s: committed = %v, want [3 5]", pairNames[i], ca)
		}
		cs, _ := p.CommittedChecksum(1)
		if want := core.ChecksumIDs([]core.ObjectID{3, 5}); cs != want {
			t.Fatalf("%s: committed checksum = %x, want %x", pairNames[i], cs, want)
		}
		rec, _ := p.Recover(1)
		if want := []core.Update{{Query: 1, Object: 3, Positive: false}}; !slices.Equal(rec, want) {
			t.Fatalf("%s: recovery = %v, want %v", pairNames[i], rec, want)
		}
	}
}

// testKindChangeThenMove changes a kNN query to a range and moves the
// range in the same batch: the batch reads as its last report, a fresh
// range query over an empty region.
func testKindChangeThenMove(t *testing.T) {
	for i, p := range protocolPair(t, core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}) {
		p.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(1, 1), K: 1})
		p.Step(0)

		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2), T: 1})
		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(6, 6, 8, 8), T: 1})
		if upd := p.Step(1); len(upd) != 0 {
			t.Fatalf("%s: updates = %v, want none", pairNames[i], upd)
		}
		if ans, _ := p.Answer(1); len(ans) != 0 {
			t.Fatalf("%s: answer = %v, want empty", pairNames[i], ans)
		}
	}
}

// testKindChangeReverted changes a kNN query to a range and back to kNN
// in one batch. The client drops its answer on each kind change, so the
// batch still tears the query down: the committed answer is empty and
// the step's stream rebuilds the answer from empty.
func testKindChangeReverted(t *testing.T) {
	for i, p := range protocolPair(t, core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}) {
		p.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
		p.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9, 9)})
		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(1, 1), K: 1})
		p.Step(0)
		p.Commit(1)

		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(8, 8, 10, 10), T: 1})
		p.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(1, 1), K: 1, T: 1})
		upd := p.Step(1)
		if want := []core.Update{{Query: 1, Object: 1, Positive: true}}; !slices.Equal(upd, want) {
			t.Fatalf("%s: updates = %v, want %v", pairNames[i], upd, want)
		}
		if ans, _ := p.Answer(1); !slices.Equal(ans, []core.ObjectID{1}) {
			t.Fatalf("%s: answer = %v, want [1]", pairNames[i], ans)
		}
		if ca, _ := p.CommittedAnswer(1); len(ca) != 0 {
			t.Fatalf("%s: committed = %v, want empty", pairNames[i], ca)
		}
	}
}

func runProtocolDifferential(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	ps := protocolPair(t, core.Options{
		Bounds:            geo.R(0, 0, 1, 1),
		GridN:             1 + rng.Intn(12),
		PredictiveHorizon: 50,
	})
	reportObject := func(u core.ObjectUpdate) {
		for _, p := range ps {
			p.ReportObject(u)
		}
	}
	const maxObjects, maxQueries = 70, 20
	objects := map[core.ObjectID]core.ObjectKind{}
	queries := map[core.QueryID]core.QueryKind{}
	// Each processor's stream replays into a client's view of every
	// query, dropped on removal and restarted empty on a kind change, as
	// internal/client's views are.
	var views [2]map[core.QueryID]map[core.ObjectID]struct{}
	for i := range views {
		views[i] = map[core.QueryID]map[core.ObjectID]struct{}{}
	}
	// reportQuery sends u to both processors and records it in queries.
	reportQuery := func(u core.QueryUpdate) {
		k, ok := queries[u.ID]
		for i, p := range ps {
			switch {
			case u.Remove:
				delete(views[i], u.ID)
			case !ok || k != u.Kind:
				views[i][u.ID] = map[core.ObjectID]struct{}{}
			}
			p.ReportQuery(u)
		}
		if u.Remove {
			delete(queries, u.ID)
		} else {
			queries[u.ID] = u.Kind
		}
	}
	var retired []core.QueryID // removed query IDs, open for re-registration
	nextO, nextQ := core.ObjectID(1), core.QueryID(1)
	randPoint := func() geo.Point { return geo.Pt(rng.Float64(), rng.Float64()) }
	randRegion := func() geo.Rect { return geo.RectAt(randPoint(), 0.02+rng.Float64()*0.4) }

	for step := 0; step < steps; step++ {
		now := float64(step + 1)
		for n := rng.Intn(12); n > 0; n-- {
			switch {
			case len(objects) == 0 || (len(objects) < maxObjects && rng.Float64() < 0.3):
				kind := core.ObjectKind(rng.Intn(3))
				objects[nextO] = kind
				reportObject(core.ObjectUpdate{ID: nextO, Kind: kind, Loc: randPoint(), T: now})
				nextO++
			case rng.Float64() < 0.1:
				id := pickObject(rng, objects)
				delete(objects, id)
				reportObject(core.ObjectUpdate{ID: id, Remove: true, T: now})
			default:
				id := pickObject(rng, objects)
				reportObject(core.ObjectUpdate{ID: id, Kind: objects[id], Loc: randPoint(), T: now})
			}
		}
		// A query may report several times in one batch: moves, kind
		// changes, a removal, and a re-registration of a removed ID.
		for n := rng.Intn(6); n > 0; n-- {
			switch r := rng.Float64(); {
			case len(queries) == 0 || (len(queries) < maxQueries && r < 0.25):
				id := nextQ
				if len(retired) > 0 && rng.Float64() < 0.5 {
					i := rng.Intn(len(retired))
					id = retired[i]
					retired = slices.Delete(retired, i, i+1)
				} else {
					nextQ++
				}
				reportQuery(randShardQueryUpdate(rng, id, core.QueryKind(rng.Intn(3)), now, randRegion, randPoint))
			case r < 0.35:
				id := pickQuery(rng, queries)
				retired = append(retired, id)
				reportQuery(core.QueryUpdate{ID: id, Remove: true, T: now})
			case r < 0.45:
				id := pickQuery(rng, queries)
				kind := core.QueryKind((int(queries[id]) + 1 + rng.Intn(2)) % 3)
				reportQuery(randShardQueryUpdate(rng, id, kind, now, randRegion, randPoint))
			default:
				id := pickQuery(rng, queries)
				reportQuery(randShardQueryUpdate(rng, id, queries[id], now, randRegion, randPoint))
			}
		}
		for i, p := range ps {
			for _, u := range p.Step(now) {
				if v, ok := views[i][u.Query]; ok && u.Positive {
					v[u.Object] = struct{}{}
				} else if ok {
					delete(v, u.Object)
				}
			}
		}

		for q := core.QueryID(1); q < nextQ; q++ {
			a, aok := ps[0].Answer(q)
			b, bok := ps[1].Answer(q)
			if aok != bok || !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: query %d answers diverge\ncore:  %v (%v)\nshard: %v (%v)", seed, step, q, a, aok, b, bok)
			}
			for i, v := range views {
				held := 0
				for _, o := range a {
					if _, in := v[q][o]; in {
						held++
					}
				}
				if held != len(a) || len(v[q]) != len(a) {
					t.Fatalf("seed %d step %d: query %d %s replay holds %v, answer %v", seed, step, q, pairNames[i], v[q], a)
				}
			}
			a, aok = ps[0].CommittedAnswer(q)
			b, bok = ps[1].CommittedAnswer(q)
			if aok != bok || !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: query %d committed answers diverge\ncore:  %v (%v)\nshard: %v (%v)", seed, step, q, a, aok, b, bok)
			}
			x, _ := ps[0].CommittedChecksum(q)
			y, _ := ps[1].CommittedChecksum(q)
			if x != y {
				t.Fatalf("seed %d step %d: query %d committed checksums diverge", seed, step, q)
			}
		}
		if q := core.QueryID(1 + rng.Intn(int(nextQ))); rng.Float64() < 0.3 {
			if x, y := ps[0].Commit(q), ps[1].Commit(q); x != y {
				t.Fatalf("seed %d step %d: Commit(%d) core=%v shard=%v", seed, step, q, x, y)
			}
		}
		if q := core.QueryID(1 + rng.Intn(int(nextQ))); rng.Float64() < 0.3 {
			a, aok := ps[0].Recover(q)
			b, bok := ps[1].Recover(q)
			if aok != bok || !slices.Equal(a, b) {
				t.Fatalf("seed %d step %d: Recover(%d) diverges\ncore:  %v\nshard: %v", seed, step, q, a, b)
			}
		}
	}
}
