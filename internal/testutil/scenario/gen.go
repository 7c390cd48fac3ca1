package scenario

import (
	"math"
	"math/rand"
	"slices"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// Vocab is a set of report shapes a Gen may draw. With no bit set it
// draws stationary, moving and predictive objects at uniform points of
// the unit square, registers and moves range and predictive-range
// queries, and commits and recovers queries through the protocol; each
// bit adds one shape.
type Vocab uint32

const (
	// Velocity gives object reports a random velocity.
	Velocity Vocab = 1 << iota
	// Waypoints gives some predictive reports a trajectory of 1–3
	// waypoints.
	Waypoints
	// Malformed puts some trajectories out of time order, so every
	// processor must reject them.
	Malformed
	// OverSpeed sets Options.MaxSpeed, so that some predictive
	// velocities and most waypoint legs are rejected as too fast.
	OverSpeed
	// KNN adds k-nearest-neighbour queries.
	KNN
	// ObjectRemovals removes objects.
	ObjectRemovals
	// QueryRemovals removes queries.
	QueryRemovals
	// KindChanges re-kinds moving queries and objects.
	KindChanges
	// MultiReport lets one query report several times per batch and
	// re-registers removed query IDs.
	MultiReport
	// Repeats has each of a fixed population of objects report 2–4 times
	// per batch, interleaved with the others' reports, crossing quadrants
	// and often returning to the quadrant it started the batch in.
	Repeats
	// Hotspot puts three in four placements in the corner [0,0.2]², so
	// one tile of a sharded router carries most of the load.
	Hotspot
	// NaNs puts a NaN in some object reports' location, velocity, time
	// or waypoint, so every processor must reject them.
	NaNs

	// All is every shape.
	All = NaNs<<1 - 1
)

// Population limits and the OverSpeed cap.
const (
	maxObjects    = 70
	maxQueries    = 20
	repeatObjects = 40
	maxSpeed      = 0.05
)

// Gen draws batches from a seed and a vocabulary. Every choice derives
// from the seed alone (picks go through sorted ID lists, never map
// order), so a (seed, vocabulary) pair denotes one exact report stream.
type Gen struct {
	rng   *rand.Rand
	vocab Vocab
	opt   core.Options
	now   float64

	objs    []core.ObjectID // live, ascending
	okind   map[core.ObjectID]core.ObjectKind
	qrys    []core.QueryID // live, ascending
	qkind   map[core.QueryID]core.QueryKind
	retired []core.QueryID // removed query IDs, open for re-registration
	nextO   core.ObjectID
	nextQ   core.QueryID
	home    [repeatObjects + 1]int // Repeats: each object's quadrant at the last batch end
}

// NewGen returns the generator for (seed, vocab). Its Options draw the
// grid resolution from the seed.
func NewGen(seed int64, vocab Vocab) *Gen {
	g := &Gen{
		rng:   rand.New(rand.NewSource(seed)),
		vocab: vocab,
		okind: map[core.ObjectID]core.ObjectKind{},
		qkind: map[core.QueryID]core.QueryKind{},
		nextO: 1,
		nextQ: 1,
	}
	g.opt = core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 1 + g.rng.Intn(12), PredictiveHorizon: 50}
	if vocab&OverSpeed != 0 {
		g.opt.MaxSpeed = maxSpeed
	}
	return g
}

// Options returns the engine options every processor of the run must
// be built with.
func (g *Gen) Options() core.Options { return g.opt }

// Next draws the next batch, one time unit after the last. It never
// runs dry.
func (g *Gen) Next() (Batch, bool) {
	g.now++
	b := Batch{T: g.now}
	if g.has(Repeats) {
		g.repeatedObjects(&b)
	} else {
		g.objects(&b)
	}
	if g.has(MultiReport) {
		g.multiQueries(&b)
	} else {
		g.queries(&b)
	}
	if g.nextQ > 1 && g.rng.Float64() < 0.2 {
		b.Commit = append(b.Commit, core.QueryID(1+g.rng.Intn(int(g.nextQ-1))))
	}
	if g.nextQ > 1 && g.rng.Float64() < 0.1 {
		b.Recover = append(b.Recover, core.QueryID(1+g.rng.Intn(int(g.nextQ-1))))
	}
	return b, true
}

func (g *Gen) has(v Vocab) bool { return g.vocab&v != 0 }

// objects draws up to 11 object reports: arrivals, removals, and moves
// to a fresh point — with several tiles, most moves cross one.
func (g *Gen) objects(b *Batch) {
	for n := g.rng.Intn(12); n > 0; n-- {
		switch {
		case len(g.objs) == 0 || (len(g.objs) < maxObjects && g.rng.Float64() < 0.3):
			id, kind := g.nextO, core.ObjectKind(g.rng.Intn(3))
			g.nextO++
			g.objs = append(g.objs, id)
			g.okind[id] = kind
			b.Objects = append(b.Objects, g.object(id, kind, g.point()))
		case g.has(ObjectRemovals) && g.rng.Float64() < 0.08:
			i := g.rng.Intn(len(g.objs))
			id := g.objs[i]
			g.objs = slices.Delete(g.objs, i, i+1)
			b.Objects = append(b.Objects, core.ObjectUpdate{ID: id, Remove: true, T: g.now})
		default:
			id := g.objs[g.rng.Intn(len(g.objs))]
			if g.has(KindChanges) && g.rng.Float64() < 0.15 {
				g.okind[id] = core.ObjectKind(g.rng.Intn(3))
			}
			b.Objects = append(b.Objects, g.object(id, g.okind[id], g.point()))
		}
	}
}

// repeatedObjects sends 2–4 reports of every object of a fixed
// population. Report k of an object goes out in round k, so one
// object's reports are spread over the batch between other objects'.
func (g *Gen) repeatedObjects(b *Batch) {
	var rounds [4][]core.ObjectUpdate
	for o := 1; o <= repeatObjects; o++ {
		n := 2 + g.rng.Intn(3)
		for k := 0; k < n; k++ {
			loc := g.inQuadrant(g.rng.Intn(4))
			if k == n-1 && g.rng.Float64() < 0.5 {
				loc = g.inQuadrant(g.home[o]) // A→B→A
			}
			u := g.object(core.ObjectID(o), core.ObjectKind(g.rng.Intn(3)), loc)
			if g.has(ObjectRemovals) && g.rng.Float64() < 0.1 {
				u = core.ObjectUpdate{ID: u.ID, Remove: true, T: g.now}
			} else if k == n-1 {
				g.home[o] = 2*int(2*min(loc.Y, 0.99)) + int(2*min(loc.X, 0.99))
			}
			rounds[k] = append(rounds[k], u)
		}
	}
	for _, r := range rounds {
		b.Objects = append(b.Objects, r...)
	}
}

// object builds one registration or movement report.
func (g *Gen) object(id core.ObjectID, kind core.ObjectKind, loc geo.Point) core.ObjectUpdate {
	u := core.ObjectUpdate{ID: id, Kind: kind, Loc: loc, T: g.now}
	if g.has(Velocity) {
		u.Vel = geo.Vec(g.rng.Float64()*0.1-0.05, g.rng.Float64()*0.1-0.05)
	}
	if kind == core.Predictive {
		g.motion(&u)
	}
	if g.has(NaNs) && g.rng.Float64() < 0.1 {
		nan := math.NaN()
		switch i := g.rng.Intn(4); {
		case i == 0:
			u.Loc.X = nan
		case i == 1:
			u.Vel.DY = nan
		case i == 2:
			u.T = nan
		case len(u.Waypoints) > 0:
			u.Waypoints[len(u.Waypoints)-1].P.Y = nan
		default: // no waypoint to spoil
			u.Loc.Y = nan
		}
	}
	return u
}

// motion draws a predictive report's over-fast velocity and trajectory.
func (g *Gen) motion(u *core.ObjectUpdate) {
	if g.has(OverSpeed) && g.rng.Float64() < 0.2 {
		u.Vel = geo.Vec(maxSpeed*(0.8+g.rng.Float64()), maxSpeed*0.8) // |v| > maxSpeed
	}
	if g.has(Waypoints|Malformed) && g.rng.Float64() < 0.3 {
		tm := g.now
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			tm += 0.5 + g.rng.Float64()*3
			u.Waypoints = append(u.Waypoints, geo.TimedPoint{P: geo.Pt(g.rng.Float64(), g.rng.Float64()), T: tm})
		}
		if g.has(Malformed) && g.rng.Float64() < 0.3 {
			i := g.rng.Intn(len(u.Waypoints))
			u.Waypoints[i].T = g.now // not after its predecessor
			if i > 0 {
				u.Waypoints[i].T = u.Waypoints[i-1].T
			}
		}
	}
}

// queries draws up to 3 query reports, at most one per query.
func (g *Gen) queries(b *Batch) {
	var touched []core.QueryID
	for n := g.rng.Intn(4); n > 0; n-- {
		if len(g.qrys) == 0 || (len(g.qrys) < maxQueries && g.rng.Float64() < 0.4) {
			b.Queries = append(b.Queries, g.register(g.nextQ))
			touched = append(touched, g.nextQ-1)
			continue
		}
		var free []core.QueryID
		for _, id := range g.qrys {
			if !slices.Contains(touched, id) {
				free = append(free, id)
			}
		}
		if len(free) == 0 {
			continue
		}
		id := free[g.rng.Intn(len(free))]
		touched = append(touched, id)
		if g.has(QueryRemovals) && g.rng.Float64() < 0.1 {
			b.Queries = append(b.Queries, g.removeQuery(id))
		} else {
			b.Queries = append(b.Queries, g.move(id, g.has(KindChanges) && g.rng.Float64() < 0.15))
		}
	}
}

// multiQueries draws up to 5 query reports, any number of them of one
// query: moves, kind changes, removals, and re-registrations of
// removed IDs.
func (g *Gen) multiQueries(b *Batch) {
	for n := g.rng.Intn(6); n > 0; n-- {
		r := g.rng.Float64()
		switch {
		case len(g.qrys) == 0 || (len(g.qrys) < maxQueries && r < 0.25):
			id := g.nextQ
			if len(g.retired) > 0 && g.rng.Float64() < 0.5 {
				i := g.rng.Intn(len(g.retired))
				id = g.retired[i]
				g.retired = slices.Delete(g.retired, i, i+1)
			}
			b.Queries = append(b.Queries, g.register(id))
		case g.has(QueryRemovals) && r < 0.35:
			b.Queries = append(b.Queries, g.removeQuery(g.qrys[g.rng.Intn(len(g.qrys))]))
		default:
			rekind := g.has(KindChanges) && r < 0.45
			b.Queries = append(b.Queries, g.move(g.qrys[g.rng.Intn(len(g.qrys))], rekind))
		}
	}
}

// register registers id, a fresh or a retired query ID, under a random
// kind.
func (g *Gen) register(id core.QueryID) core.QueryUpdate {
	if id == g.nextQ {
		g.nextQ++
	}
	i, _ := slices.BinarySearch(g.qrys, id)
	g.qrys = slices.Insert(g.qrys, i, id)
	kinds := g.queryKinds()
	g.qkind[id] = kinds[g.rng.Intn(len(kinds))]
	return g.query(id, g.qkind[id])
}

func (g *Gen) removeQuery(id core.QueryID) core.QueryUpdate {
	i, _ := slices.BinarySearch(g.qrys, id)
	g.qrys = slices.Delete(g.qrys, i, i+1)
	g.retired = append(g.retired, id)
	return core.QueryUpdate{ID: id, Remove: true, T: g.now}
}

// move re-reports a live query, under another kind if rekind is set.
func (g *Gen) move(id core.QueryID, rekind bool) core.QueryUpdate {
	if rekind {
		others := slices.DeleteFunc(g.queryKinds(), func(k core.QueryKind) bool { return k == g.qkind[id] })
		g.qkind[id] = others[g.rng.Intn(len(others))]
	}
	return g.query(id, g.qkind[id])
}

func (g *Gen) queryKinds() []core.QueryKind {
	if g.has(KNN) {
		return []core.QueryKind{core.Range, core.KNN, core.PredictiveRange}
	}
	return []core.QueryKind{core.Range, core.PredictiveRange}
}

// query builds a registration or movement report of the given kind.
func (g *Gen) query(id core.QueryID, kind core.QueryKind) core.QueryUpdate {
	u := core.QueryUpdate{ID: id, Kind: kind, T: g.now}
	switch kind {
	case core.Range:
		u.Region = geo.RectAt(g.point(), 0.02+g.rng.Float64()*0.4)
	case core.KNN:
		u.Focal = g.point()
		u.K = 1 + g.rng.Intn(6)
	case core.PredictiveRange:
		u.Region = geo.RectAt(g.point(), 0.02+g.rng.Float64()*0.4)
		u.T1 = g.now + g.rng.Float64()*10
		u.T2 = u.T1 + g.rng.Float64()*10
	}
	return u
}

// point draws a placement: uniform, or with Hotspot mostly in the hot
// corner.
func (g *Gen) point() geo.Point {
	if g.has(Hotspot) && g.rng.Float64() < 0.75 {
		return geo.Pt(g.rng.Float64()*0.2, g.rng.Float64()*0.2)
	}
	return geo.Pt(g.rng.Float64(), g.rng.Float64())
}

// inQuadrant draws a point in quadrant q of the unit square, numbered
// row-major from the origin: the tiles of a 2×2 split.
func (g *Gen) inQuadrant(q int) geo.Point {
	return geo.Pt((float64(q%2)+g.rng.Float64())/2, (float64(q/2)+g.rng.Float64())/2)
}
