package core

import (
	"math/rand"
	"slices"
	"testing"

	"cqp/internal/geo"
	"cqp/internal/obs"
)

// TestStepJoinsEachObjectOnce feeds one engine batches in which every
// object reports three times, and a twin engine each object's net
// reports for the same step: a Remove if one occurred, then the last
// accepted report. The batches move objects across cells and back,
// move, remove and re-add objects, follow a valid predictive report with
// a rejected over-speed one, and end objects on malformed trajectories.
// Only an object's state at the step boundary enters the join, so the
// two engines must agree on the stream, the answers and the join work:
// every object is gathered once, whatever it sent.
func TestStepJoinsEachObjectOnce(t *testing.T) {
	const objects, steps, maxSpeed = 60, 30, 0.05
	regB, regN := obs.NewRegistry(), obs.NewRegistry()
	opt := Options{Bounds: geo.R(0, 0, 1, 1), GridN: 8, MaxSpeed: maxSpeed, PredictiveHorizon: 5}
	opt.Metrics = regB
	batched := MustNewEngine(opt)
	opt.Metrics = regN
	net := MustNewEngine(opt)
	rng := rand.New(rand.NewSource(7))
	pt := func() geo.Point { return geo.Pt(rng.Float64(), rng.Float64()) }

	var qids []QueryID
	queryReport := func(id QueryID, s float64) QueryUpdate {
		switch id % 3 {
		case 0:
			return QueryUpdate{ID: id, Kind: Range, Region: geo.RectAt(pt(), 0.3), T: s}
		case 1:
			return QueryUpdate{ID: id, Kind: KNN, Focal: pt(), K: 4, T: s}
		}
		return QueryUpdate{ID: id, Kind: PredictiveRange, Region: geo.RectAt(pt(), 0.3), T: s, T1: s + 1, T2: s + 3}
	}
	for id := QueryID(1); id <= 24; id++ {
		qids = append(qids, id)
		u := queryReport(id, 0)
		batched.ReportQuery(u)
		net.ReportQuery(u)
	}

	var moved uint64
	for s := 1; s <= steps; s++ {
		now := float64(s)
		removed := make([]bool, objects+1)
		last := make([]*ObjectUpdate, objects+1) // last accepted report since any removal
		for round := 0; round < 3; round++ {
			for i := 1; i <= objects; i++ {
				u := ObjectUpdate{ID: ObjectID(i), Kind: Moving, Loc: pt(), T: now}
				accepted := true
				switch role := (i + s) % 6; {
				case role == 0 && round == 1: // moved, removed, re-added
					u = ObjectUpdate{ID: ObjectID(i), Remove: true}
				case role == 1 && round == 1: // valid predictive motion
					u.Kind, u.Vel = Predictive, geo.Vec(maxSpeed/2, -maxSpeed/3)
				case role == 1 && round == 2: // over-speed: rejected
					u.Kind, u.Vel = Predictive, geo.Vec(2*maxSpeed, 0)
					accepted = false
				case role == 2 && round == 2: // malformed trajectory: rejected
					u.Kind = Predictive
					u.Waypoints = []geo.TimedPoint{{P: u.Loc, T: now - 1}}
					accepted = false
				case role == 3 && round == 2: // removed, re-added next step
					u = ObjectUpdate{ID: ObjectID(i), Remove: true}
				case role == 4 && round == 1: // valid trajectory, then moving again
					u.Kind = Predictive
					u.Waypoints = []geo.TimedPoint{{P: geo.Pt(u.Loc.X, u.Loc.Y+maxSpeed/2), T: now + 1}}
				}
				batched.ReportObject(u)
				switch {
				case u.Remove:
					removed[i], last[i] = true, nil
				case accepted:
					last[i] = &u
				}
			}
		}
		for i := 1; i <= objects; i++ {
			if removed[i] {
				net.ReportObject(ObjectUpdate{ID: ObjectID(i), Remove: true})
			}
			if last[i] != nil {
				net.ReportObject(*last[i])
			}
		}
		if s%4 == 0 {
			for _, id := range qids[:6] {
				u := queryReport(id, now)
				batched.ReportQuery(u)
				net.ReportQuery(u)
			}
		}

		got, want := batched.Step(now), net.Step(now)
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: batched stream %v\nnet stream %v", s, got, want)
		}
		for _, q := range qids {
			ga, _ := batched.Answer(q)
			wa, _ := net.Answer(q)
			gc, _ := batched.AnswerChecksum(q)
			wc, _ := net.AnswerChecksum(q)
			if !slices.Equal(ga, wa) || gc != wc {
				t.Fatalf("step %d query %d: batched answer %v (%x), net %v (%x)", s, q, ga, gc, wa, wc)
			}
		}
		if g, w := batched.Stats().CandidateChecks, net.Stats().CandidateChecks; g != w {
			t.Fatalf("step %d: batched engine made %d candidate checks, net %d", s, g, w)
		}
		moved = regB.Counter("engine.moved_objects").Value()
		if w := regN.Counter("engine.moved_objects").Value(); moved != w {
			t.Fatalf("step %d: batched engine joined %d moved objects, net %d", s, moved, w)
		}
		for _, e := range []*Engine{batched, net} {
			if err := e.CheckConsistency(true); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
	}
	if reports := batched.Stats().ObjectReports; moved == 0 || 2*moved > reports {
		t.Fatalf("joined %d moved objects for %d reports; want every object about once per three reports", moved, reports)
	}
}

// TestRemoveAfterMoveInOneBatch removes objects whose reports earlier in
// the same batch moved them to another cell. The grid still indexes
// them where the previous step left them, so that is where removal must
// delete them; CheckConsistency would see a stale entry otherwise.
func TestRemoveAfterMoveInOneBatch(t *testing.T) {
	e := newTestEngine(t)
	e.ReportQuery(QueryUpdate{ID: 1, Kind: Range, Region: geo.R(0, 0, 5, 5)})
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 1)})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(9, 9)})
	e.Step(1)
	e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(8, 8)})
	e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(2, 2)})
	e.ReportObject(ObjectUpdate{ID: 1, Remove: true})
	e.ReportObject(ObjectUpdate{ID: 2, Remove: true})
	if got, want := e.Step(2), []Update{{1, 1, false}}; !slices.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConsistencySeesGrid corrupts the grid's point entries behind
// the engine's back and requires CheckConsistency to notice each fault.
func TestCheckConsistencySeesGrid(t *testing.T) {
	setup := func() (*Engine, *objectState) {
		e := newTestEngine(t)
		e.ReportObject(ObjectUpdate{ID: 1, Kind: Moving, Loc: geo.Pt(1, 1)})
		e.ReportObject(ObjectUpdate{ID: 2, Kind: Moving, Loc: geo.Pt(6, 6)})
		e.Step(1)
		if err := e.CheckConsistency(true); err != nil {
			t.Fatal(err)
		}
		return e, e.objs[1]
	}
	faults := map[string]func(e *Engine, os *objectState){
		"stale entry":   func(e *Engine, os *objectState) { e.g.InsertObject(okeyH(os.h), geo.Pt(9, 9)) },
		"missing entry": func(e *Engine, os *objectState) { e.g.RemoveObject(okeyH(os.h), os.loc) },
		"moved entry":   func(e *Engine, os *objectState) { e.g.MoveObject(okeyH(os.h), os.loc, geo.Pt(9, 9)) },
		"stale point":   func(e *Engine, os *objectState) { e.g.InsertObject(okeyH(os.h), geo.Pt(1.2, 1)) },
		"dead handle":   func(e *Engine, _ *objectState) { e.g.InsertObject(okeyH(7), geo.Pt(3, 3)) },
	}
	for name, corrupt := range faults {
		e, os := setup()
		corrupt(e, os)
		if err := e.CheckConsistency(false); err == nil {
			t.Errorf("%s: CheckConsistency passed", name)
		}
	}
}
