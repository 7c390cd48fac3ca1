package core

import (
	"math/rand"
	"testing"

	"cqp/internal/geo"
)

// clientState mirrors what a subscriber reconstructs from the update
// stream, including commit/recovery behaviour.
type clientState struct {
	answer map[ObjectID]struct{}
}

// TestRandomWorkloadInvariant is the central property test of the engine:
// under an arbitrary interleaving of object moves, insertions, removals,
// query registrations, movements and removals — across all three query
// kinds — replaying the emitted update stream always reproduces exactly
// the from-scratch answer of every query, and the engine's internal
// bookkeeping stays consistent.
func TestRandomWorkloadInvariant(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 1234}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			runRandomWorkload(t, seed, 120)
		})
	}
}

func runRandomWorkload(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	bounds := geo.R(0, 0, 1, 1)
	e := MustNewEngine(Options{Bounds: bounds, GridN: 1 + rng.Intn(12), PredictiveHorizon: 50})

	const (
		maxObjects = 80
		maxQueries = 25
	)
	type objInfo struct {
		kind ObjectKind
	}
	objects := map[ObjectID]objInfo{}
	queryKinds := map[QueryID]QueryKind{}
	clients := map[QueryID]*clientState{}
	nextO, nextQ := ObjectID(1), QueryID(1)

	randPoint := func() geo.Point { return geo.Pt(rng.Float64(), rng.Float64()) }
	randRegion := func() geo.Rect {
		return geo.RectAt(randPoint(), 0.02+rng.Float64()*0.3)
	}
	randVel := func() geo.Vector {
		return geo.Vec(rng.Float64()*0.1-0.05, rng.Float64()*0.1-0.05)
	}

	now := 0.0
	for step := 0; step < steps; step++ {
		now += 1
		// Queries whose removal is queued this step may still legitimately
		// receive updates emitted earlier in the same batch (object-removal
		// negatives are processed before query removals).
		var removedThisStep []QueryID
		// Mutate a random number of objects and queries.
		for n := rng.Intn(10); n > 0; n-- {
			switch {
			case len(objects) == 0 || (len(objects) < maxObjects && rng.Float64() < 0.3):
				kind := ObjectKind(rng.Intn(3))
				id := nextO
				nextO++
				objects[id] = objInfo{kind}
				e.ReportObject(ObjectUpdate{ID: id, Kind: kind, Loc: randPoint(), Vel: randVel(), T: now})
			case rng.Float64() < 0.1:
				// Remove a random object.
				var id ObjectID
				for id = range objects {
					break
				}
				delete(objects, id)
				e.ReportObject(ObjectUpdate{ID: id, Remove: true, T: now})
			default:
				// Move a random object (kind retained).
				var id ObjectID
				for id = range objects {
					break
				}
				e.ReportObject(ObjectUpdate{ID: id, Kind: objects[id].kind, Loc: randPoint(), Vel: randVel(), T: now})
			}
		}
		for n := rng.Intn(4); n > 0; n-- {
			switch {
			case len(queryKinds) == 0 || (len(queryKinds) < maxQueries && rng.Float64() < 0.4):
				kind := QueryKind(rng.Intn(3))
				id := nextQ
				nextQ++
				queryKinds[id] = kind
				clients[id] = &clientState{answer: map[ObjectID]struct{}{}}
				e.ReportQuery(randQueryUpdate(rng, id, kind, now, randRegion, randPoint))
			case rng.Float64() < 0.1:
				var id QueryID
				for id = range queryKinds {
					break
				}
				delete(queryKinds, id)
				removedThisStep = append(removedThisStep, id)
				e.ReportQuery(QueryUpdate{ID: id, Remove: true, T: now})
			default:
				// Move a random query, keeping its kind.
				var id QueryID
				for id = range queryKinds {
					break
				}
				e.ReportQuery(randQueryUpdate(rng, id, queryKinds[id], now, randRegion, randPoint))
			}
		}

		updates := e.Step(now)

		// Replay into every client.
		for _, u := range updates {
			c, ok := clients[u.Query]
			if !ok {
				t.Fatalf("step %d (seed %d): update %v for unknown query", step, seed, u)
			}
			if u.Positive {
				if _, dup := c.answer[u.Object]; dup {
					t.Fatalf("step %d (seed %d): duplicate positive %v", step, seed, u)
				}
				c.answer[u.Object] = struct{}{}
			} else {
				if _, ok := c.answer[u.Object]; !ok {
					t.Fatalf("step %d (seed %d): negative for absent member %v", step, seed, u)
				}
				delete(c.answer, u.Object)
			}
		}
		// Drop subscribers whose removal took effect during this step.
		for _, id := range removedThisStep {
			delete(clients, id)
		}

		// Every client answer must equal the engine's answer and the
		// engine's answer must match the brute-force oracle.
		for qid, c := range clients {
			got, ok := e.Answer(qid)
			if !ok {
				t.Fatalf("step %d (seed %d): engine lost query %d", step, seed, qid)
			}
			if len(got) != len(c.answer) {
				t.Fatalf("step %d (seed %d): query %d client=%d server=%d",
					step, seed, qid, len(c.answer), len(got))
			}
			for _, oid := range got {
				if _, ok := c.answer[oid]; !ok {
					t.Fatalf("step %d (seed %d): query %d client missing %d", step, seed, qid, oid)
				}
			}
		}
		if err := e.CheckConsistency(true); err != nil {
			t.Fatalf("step %d (seed %d): %v", step, seed, err)
		}
	}
}

func randQueryUpdate(rng *rand.Rand, id QueryID, kind QueryKind, now float64,
	randRegion func() geo.Rect, randPoint func() geo.Point) QueryUpdate {
	u := QueryUpdate{ID: id, Kind: kind, T: now}
	switch kind {
	case Range:
		u.Region = randRegion()
	case KNN:
		u.Focal = randPoint()
		u.K = 1 + rng.Intn(6)
	case PredictiveRange:
		u.Region = randRegion()
		u.T1 = now + rng.Float64()*10
		u.T2 = u.T1 + rng.Float64()*10
	}
	return u
}

// TestRandomRecovery interleaves disconnections (lost update batches),
// commits, and recoveries, asserting that a recovering client always
// converges to the server answer.
//
// It models the full recovery protocol: the client snapshots its answer
// whenever it commits and rolls back to that snapshot on reconnection
// before applying the server's committed→current diff. (Without the
// rollback, an object that entered and left the answer entirely within
// the uncommitted window would linger on the client.)
func TestRandomRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	e := NewProtocol(MustNewEngine(Options{Bounds: geo.R(0, 0, 1, 1), GridN: 8}))

	const q = QueryID(1)
	e.ReportQuery(QueryUpdate{ID: q, Kind: Range, Region: geo.R(0.3, 0.3, 0.7, 0.7)})
	for i := ObjectID(1); i <= 40; i++ {
		e.ReportObject(ObjectUpdate{ID: i, Kind: Moving, Loc: geo.Pt(rng.Float64(), rng.Float64())})
	}
	updates := e.Step(0)

	client := map[ObjectID]struct{}{}
	ApplyUpdates(client, updates, q)

	copySet := func(s map[ObjectID]struct{}) map[ObjectID]struct{} {
		out := make(map[ObjectID]struct{}, len(s))
		for k := range s {
			out[k] = struct{}{}
		}
		return out
	}
	e.Commit(q)
	snapshot := copySet(client)
	connected := true

	for step := 1; step <= 300; step++ {
		// Random object churn.
		for n := rng.Intn(8); n > 0; n-- {
			id := ObjectID(1 + rng.Intn(40))
			e.ReportObject(ObjectUpdate{ID: id, Kind: Moving, Loc: geo.Pt(rng.Float64(), rng.Float64()), T: float64(step)})
		}
		updates := e.Step(float64(step))

		switch {
		case connected && rng.Float64() < 0.2:
			connected = false // disconnect; this batch and later ones are lost
		case !connected && rng.Float64() < 0.3:
			// Reconnect: roll back to the commit snapshot, then apply the
			// recovery diff.
			rec, ok := e.Recover(q)
			if !ok {
				t.Fatal("Recover failed")
			}
			client = copySet(snapshot)
			ApplyUpdates(client, rec, q)
			// Recover commits server-side; mirror that on the client.
			snapshot = copySet(client)
			connected = true
		}
		if connected {
			ApplyUpdates(client, updates, q)
			if rng.Float64() < 0.3 {
				e.Commit(q)
				snapshot = copySet(client)
			}
		}

		if connected {
			server, _ := e.Answer(q)
			if len(server) != len(client) {
				t.Fatalf("step %d: client=%d server=%d", step, len(client), len(server))
			}
			for _, id := range server {
				if _, ok := client[id]; !ok {
					t.Fatalf("step %d: client missing %d", step, id)
				}
			}
		}
	}
}
