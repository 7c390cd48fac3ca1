package shard

import (
	"math/rand"
	"sort"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// TestDifferentialShardedVsSingle is the central correctness property
// of the sharded engine: an arbitrary randomized workload — moving,
// predictive, and trajectory objects, range/kNN/predictive queries,
// removals, kind changes, and plenty of cross-shard movers — replayed
// through a single core.Engine and through a 2×2 (and 1×4) sharded
// engine must produce identical answers AND, through core.Protocol,
// identical committed answers for every query after every Step.
//
// The per-step update streams are allowed to differ (a cross-tile
// migration inside a spanning query nets to nothing here but may also
// net to nothing in core; attribution of same-batch teardown differs),
// so the test additionally replays the sharded stream into per-query
// client sets and checks the replay guarantee holds for the sharded
// engine exactly as core's property test checks it for the single one.
func TestDifferentialShardedVsSingle(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42, 1234} {
		for _, grid := range [][2]int{{2, 2}, {1, 4}} {
			seed, grid := seed, grid
			t.Run("", func(t *testing.T) {
				runDifferential(t, seed, grid[0], grid[1], 100)
			})
		}
	}
}

func runDifferential(t *testing.T, seed int64, rows, cols, steps int) {
	rng := rand.New(rand.NewSource(seed))
	copt := core.Options{
		Bounds:            geo.R(0, 0, 1, 1),
		GridN:             1 + rng.Intn(12),
		PredictiveHorizon: 50,
	}
	single := core.NewProtocol(core.MustNewEngine(copt))
	shardEng, err := New(Options{Core: copt, Rows: rows, Cols: cols})
	if err != nil {
		t.Fatal(err)
	}
	defer shardEng.Close()
	sharded := core.NewProtocol(shardEng)

	const (
		maxObjects = 70
		maxQueries = 20
	)
	objects := map[core.ObjectID]core.ObjectKind{}
	queryKinds := map[core.QueryID]core.QueryKind{}
	clients := map[core.QueryID]map[core.ObjectID]struct{}{}
	nextO, nextQ := core.ObjectID(1), core.QueryID(1)

	randPoint := func() geo.Point { return geo.Pt(rng.Float64(), rng.Float64()) }
	randRegion := func() geo.Rect { return geo.RectAt(randPoint(), 0.02+rng.Float64()*0.4) }
	randVel := func() geo.Vector {
		return geo.Vec(rng.Float64()*0.1-0.05, rng.Float64()*0.1-0.05)
	}
	report := func(ou *core.ObjectUpdate, qu *core.QueryUpdate) {
		if ou != nil {
			single.ReportObject(*ou)
			sharded.ReportObject(*ou)
		}
		if qu != nil {
			single.ReportQuery(*qu)
			sharded.ReportQuery(*qu)
		}
	}

	now := 0.0
	for step := 0; step < steps; step++ {
		now += 1

		for n := rng.Intn(12); n > 0; n-- {
			switch {
			case len(objects) == 0 || (len(objects) < maxObjects && rng.Float64() < 0.3):
				kind := core.ObjectKind(rng.Intn(3))
				id := nextO
				nextO++
				objects[id] = kind
				u := core.ObjectUpdate{ID: id, Kind: kind, Loc: randPoint(), Vel: randVel(), T: now}
				if kind == core.Predictive && rng.Float64() < 0.3 {
					u.Waypoints = randWaypoints(rng, u.Loc, now)
				}
				report(&u, nil)
			case rng.Float64() < 0.08:
				id := pickObject(rng, objects)
				delete(objects, id)
				report(&core.ObjectUpdate{ID: id, Remove: true, T: now}, nil)
			default:
				// Move an object to a fresh uniform point: with multiple
				// tiles, a large fraction of these are cross-shard
				// migrations.
				id := pickObject(rng, objects)
				u := core.ObjectUpdate{ID: id, Kind: objects[id], Loc: randPoint(), Vel: randVel(), T: now}
				if objects[id] == core.Predictive && rng.Float64() < 0.3 {
					u.Waypoints = randWaypoints(rng, u.Loc, now)
				}
				report(&u, nil)
			}
		}

		// At most one update per query per step; TestProtocolDifferential
		// covers several.
		touchedQ := map[core.QueryID]struct{}{}
		for n := rng.Intn(4); n > 0; n-- {
			switch {
			case len(queryKinds) == 0 || (len(queryKinds) < maxQueries && rng.Float64() < 0.4):
				kind := core.QueryKind(rng.Intn(3))
				id := nextQ
				nextQ++
				queryKinds[id] = kind
				clients[id] = map[core.ObjectID]struct{}{}
				touchedQ[id] = struct{}{}
				u := randShardQueryUpdate(rng, id, kind, now, randRegion, randPoint)
				report(nil, &u)
			case rng.Float64() < 0.1:
				id := pickUntouched(rng, queryKinds, touchedQ)
				if id == 0 {
					continue
				}
				delete(queryKinds, id)
				delete(clients, id)
				touchedQ[id] = struct{}{}
				report(nil, &core.QueryUpdate{ID: id, Remove: true, T: now})
			default:
				id := pickUntouched(rng, queryKinds, touchedQ)
				if id == 0 {
					continue
				}
				kind := queryKinds[id]
				if rng.Float64() < 0.15 {
					// Kind change: a silent re-registration in both engines.
					kind = core.QueryKind((int(kind) + 1 + rng.Intn(2)) % 3)
					queryKinds[id] = kind
					clients[id] = map[core.ObjectID]struct{}{}
				}
				touchedQ[id] = struct{}{}
				u := randShardQueryUpdate(rng, id, kind, now, randRegion, randPoint)
				report(nil, &u)
			}
		}

		singleUpd := single.Step(now)
		shardUpd := sharded.Step(now)
		_ = singleUpd

		// Replay guarantee for the sharded stream.
		for _, u := range shardUpd {
			c, ok := clients[u.Query]
			if !ok {
				// Legitimate only for a query removed this step (phase-1
				// negatives of same-batch object removals).
				if u.Positive {
					t.Fatalf("seed %d step %d: positive %v for unknown query", seed, step, u)
				}
				continue
			}
			if u.Positive {
				if _, dup := c[u.Object]; dup {
					t.Fatalf("seed %d step %d: duplicate positive %v", seed, step, u)
				}
				c[u.Object] = struct{}{}
			} else {
				if _, in := c[u.Object]; !in {
					t.Fatalf("seed %d step %d: negative for absent member %v", seed, step, u)
				}
				delete(c, u.Object)
			}
		}

		// The heart of the test: both engines agree exactly.
		if a, b := single.NumObjects(), sharded.NumObjects(); a != b {
			t.Fatalf("seed %d step %d: NumObjects single=%d sharded=%d", seed, step, a, b)
		}
		if a, b := single.NumQueries(), sharded.NumQueries(); a != b {
			t.Fatalf("seed %d step %d: NumQueries single=%d sharded=%d", seed, step, a, b)
		}
		for qid := range queryKinds {
			sa, ok1 := single.Answer(qid)
			ba, ok2 := sharded.Answer(qid)
			if !ok1 || !ok2 {
				t.Fatalf("seed %d step %d: query %d lost (single=%v sharded=%v)", seed, step, qid, ok1, ok2)
			}
			if !idsEqual(sa, ba) {
				t.Fatalf("seed %d step %d: query %d (%v) answers diverge\nsingle:  %v\nsharded: %v",
					seed, step, qid, queryKinds[qid], sa, ba)
			}
			sc, _ := single.CommittedAnswer(qid)
			bc, _ := sharded.CommittedAnswer(qid)
			if !idsEqual(sc, bc) {
				t.Fatalf("seed %d step %d: query %d (%v) committed answers diverge\nsingle:  %v\nsharded: %v",
					seed, step, qid, queryKinds[qid], sc, bc)
			}
			// And the replayed client matches the merged answer.
			c := clients[qid]
			if len(c) != len(ba) {
				t.Fatalf("seed %d step %d: query %d replay=%d answer=%d", seed, step, qid, len(c), len(ba))
			}
			for _, o := range ba {
				if _, ok := c[o]; !ok {
					t.Fatalf("seed %d step %d: query %d replay missing %d", seed, step, qid, o)
				}
			}
		}

		// Occasionally exercise the protocol surface identically on both.
		if rng.Float64() < 0.2 && len(queryKinds) > 0 {
			id := pickQuery(rng, queryKinds)
			if a, b := single.Commit(id), sharded.Commit(id); a != b {
				t.Fatalf("seed %d step %d: Commit(%d) single=%v sharded=%v", seed, step, id, a, b)
			}
			sc, _ := single.CommittedChecksum(id)
			bc, _ := sharded.CommittedChecksum(id)
			if sc != bc {
				t.Fatalf("seed %d step %d: committed checksums diverge for %d", seed, step, id)
			}
		}
		if rng.Float64() < 0.1 && len(queryKinds) > 0 {
			id := pickQuery(rng, queryKinds)
			ra, _ := single.Recover(id)
			rb, _ := sharded.Recover(id)
			if len(ra) != len(rb) {
				t.Fatalf("seed %d step %d: Recover(%d) single=%v sharded=%v", seed, step, id, ra, rb)
			}
			for i := range ra {
				if ra[i] != rb[i] {
					t.Fatalf("seed %d step %d: Recover(%d) single=%v sharded=%v", seed, step, id, ra, rb)
				}
			}
		}
	}
}

// pickObject picks a uniformly random object, deterministically given
// the rng state: the choice must not lean on map iteration order, or
// the workload a seed denotes changes from run to run and failures
// cannot be reproduced.
func pickObject(rng *rand.Rand, objects map[core.ObjectID]core.ObjectKind) core.ObjectID {
	ids := make([]core.ObjectID, 0, len(objects))
	for id := range objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))]
}

// pickQuery is pickObject for queries.
func pickQuery(rng *rand.Rand, kinds map[core.QueryID]core.QueryKind) core.QueryID {
	ids := make([]core.QueryID, 0, len(kinds))
	for id := range kinds {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))]
}

// pickUntouched picks a random query not yet updated this step; 0 if
// none qualifies (QueryID 0 is never issued).
func pickUntouched(rng *rand.Rand, kinds map[core.QueryID]core.QueryKind, touched map[core.QueryID]struct{}) core.QueryID {
	var ids []core.QueryID
	for id := range kinds {
		if _, dup := touched[id]; !dup {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return 0
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))]
}

func randShardQueryUpdate(rng *rand.Rand, id core.QueryID, kind core.QueryKind, now float64,
	randRegion func() geo.Rect, randPoint func() geo.Point) core.QueryUpdate {
	u := core.QueryUpdate{ID: id, Kind: kind, T: now}
	switch kind {
	case core.Range:
		u.Region = randRegion()
	case core.KNN:
		u.Focal = randPoint()
		u.K = 1 + rng.Intn(6)
	case core.PredictiveRange:
		u.Region = randRegion()
		u.T1 = now + rng.Float64()*10
		u.T2 = u.T1 + rng.Float64()*10
	}
	return u
}

func randWaypoints(rng *rand.Rand, start geo.Point, now float64) []geo.TimedPoint {
	n := 1 + rng.Intn(3)
	out := make([]geo.TimedPoint, 0, n)
	tm := now
	for i := 0; i < n; i++ {
		tm += 0.5 + rng.Float64()*3
		out = append(out, geo.TimedPoint{
			P: geo.Pt(rng.Float64(), rng.Float64()),
			T: tm,
		})
	}
	return out
}
