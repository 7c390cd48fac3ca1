package gen

import (
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/roadnet"
)

func testWorld(t *testing.T, n int, seed int64) *World {
	t.Helper()
	net := roadnet.Generate(roadnet.Config{Lattice: 16, Seed: seed})
	return MustNewWorld(Config{Net: net, NumObjects: n, Seed: seed})
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(Config{}); err == nil {
		t.Error("nil network should fail")
	}
	net := roadnet.Generate(roadnet.Config{Lattice: 4, Seed: 1})
	if _, err := NewWorld(Config{Net: net}); err == nil {
		t.Error("zero objects should fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewWorld should panic")
		}
	}()
	MustNewWorld(Config{})
}

func TestObjectsStayOnNetwork(t *testing.T) {
	w := testWorld(t, 50, 1)
	net := roadnet.Generate(roadnet.Config{Lattice: 16, Seed: 1})
	for step := 0; step < 200; step++ {
		w.Advance(1)
		for i := 0; i < w.NumObjects(); i++ {
			loc, _ := w.Object(i)
			// Every object must lie on some edge: distance to the segment
			// between its current route nodes must be ~0. We verify the
			// weaker, network-independent property that the location is
			// within the city bounds.
			if loc.X < -0.1 || loc.X > 1.1 || loc.Y < -0.1 || loc.Y > 1.1 {
				t.Fatalf("step %d object %d off the map: %v", step, i, loc)
			}
			// And that its nearest intersection is very close relative to
			// the lattice spacing (1/16): objects travel between adjacent
			// intersections.
			ni := net.NearestNode(loc)
			if d := loc.Dist(net.Node(ni)); d > 0.2 {
				t.Fatalf("step %d object %d far from network: %v (d=%v)", step, i, loc, d)
			}
		}
	}
}

func TestObjectsActuallyMove(t *testing.T) {
	w := testWorld(t, 20, 2)
	before := make([]geo.Point, w.NumObjects())
	for i := range before {
		before[i], _ = w.Object(i)
	}
	w.Advance(10)
	movedCount := 0
	for i := range before {
		after, _ := w.Object(i)
		if after.Dist(before[i]) > 1e-9 {
			movedCount++
		}
	}
	if movedCount < w.NumObjects()/2 {
		t.Fatalf("only %d/%d objects moved", movedCount, w.NumObjects())
	}
	if w.Now() != 10 {
		t.Fatalf("Now = %v", w.Now())
	}
}

func TestVelocityPointsAlongMovement(t *testing.T) {
	w := testWorld(t, 30, 3)
	w.Advance(0.5)
	for i := 0; i < w.NumObjects(); i++ {
		loc, vel := w.Object(i)
		if vel == (geo.Vector{}) {
			continue // parked or at a node boundary
		}
		// Advance a small dt and compare against linear extrapolation; the
		// prediction holds while the object stays on its segment.
		dt := 0.01
		w.AdvanceObject(i, dt)
		after, _ := w.Object(i)
		predicted := loc.Add(vel.Scale(dt))
		// The object may cross onto a new segment, so allow a tolerance of
		// the distance traveled.
		if after.Dist(predicted) > vel.Len()*dt*2+1e-9 {
			t.Fatalf("object %d: predicted %v, actual %v", i, predicted, after)
		}
	}
}

func TestDeterminism(t *testing.T) {
	w1 := testWorld(t, 25, 7)
	w2 := testWorld(t, 25, 7)
	w1.Advance(13)
	w2.Advance(13)
	for i := 0; i < w1.NumObjects(); i++ {
		p1, v1 := w1.Object(i)
		p2, v2 := w2.Object(i)
		if p1 != p2 || v1 != v2 {
			t.Fatalf("object %d diverged: %v/%v vs %v/%v", i, p1, v1, p2, v2)
		}
	}
}

// recordingSink captures reports for assertions.
type recordingSink struct {
	objs []core.ObjectUpdate
	qrys []core.QueryUpdate
}

func (r *recordingSink) ReportObject(u core.ObjectUpdate) { r.objs = append(r.objs, u) }
func (r *recordingSink) ReportQuery(u core.QueryUpdate)   { r.qrys = append(r.qrys, u) }

func TestWorkloadBootstrapAndTick(t *testing.T) {
	w := testWorld(t, 40, 4)
	wl := NewWorkload(w, 10, 0.05, 4)

	var sink recordingSink
	wl.Bootstrap(&sink)
	if len(sink.objs) != 40 || len(sink.qrys) != 10 {
		t.Fatalf("bootstrap: %d objects, %d queries", len(sink.objs), len(sink.qrys))
	}
	for _, q := range sink.qrys {
		if q.Kind != core.Range {
			t.Fatalf("query kind = %v", q.Kind)
		}
		if w := q.Region.Width(); w < 0.049 || w > 0.051 {
			t.Fatalf("query side = %v", w)
		}
	}

	sink = recordingSink{}
	o, q := wl.Tick(&sink, 5, 0.5, 0.3)
	if o != 20 || q != 3 {
		t.Fatalf("tick reported %d objects, %d queries", o, q)
	}
	if len(sink.objs) != 20 || len(sink.qrys) != 3 {
		t.Fatalf("sink got %d objects, %d queries", len(sink.objs), len(sink.qrys))
	}
	// Sampled object ids must be distinct.
	seen := map[core.ObjectID]bool{}
	for _, u := range sink.objs {
		if seen[u.ID] {
			t.Fatalf("duplicate report for %d", u.ID)
		}
		seen[u.ID] = true
	}

	// Rates clamp at the population size.
	sink = recordingSink{}
	o, q = wl.Tick(&sink, 5, 1.0, 1.0)
	if o != 40 || q != 10 {
		t.Fatalf("full tick reported %d objects, %d queries", o, q)
	}
}

func TestWorkloadDrivesEngine(t *testing.T) {
	w := testWorld(t, 60, 5)
	wl := NewWorkload(w, 15, 0.1, 5)
	e := core.MustNewEngine(core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 16})

	wl.Bootstrap(e)
	e.Step(w.Now())
	if err := e.CheckConsistency(true); err != nil {
		t.Fatal(err)
	}

	for step := 0; step < 20; step++ {
		wl.Tick(e, 5, 0.4, 0.4)
		e.Step(w.Now())
		if err := e.CheckConsistency(false); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	// Queries centered on reported objects should usually be non-empty
	// (the center object itself lies inside whenever both reported
	// together); just assert the engine kept all populations.
	if e.NumObjects() != 60 || e.NumQueries() != 15 {
		t.Fatalf("engine lost population: %d/%d", e.NumObjects(), e.NumQueries())
	}
}
