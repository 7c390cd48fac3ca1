package main

import (
	"math/rand"
	"time"

	"cqp/internal/core"
	"cqp/internal/gen"
	"cqp/internal/geo"
	"cqp/internal/roadnet"
)

// bounds is the monitored space of every workload: the unit square the
// road-network generator fills.
var bounds = geo.R(0, 0, 1, 1)

// scriptSpec sizes one workload's script. Everything the system under
// test will see is derived from it and the seed.
type scriptSpec struct {
	objects    int     // moving objects
	stationary int     // additional objects that report once and never move
	ranges     int     // moving range queries
	knns       int     // moving kNN queries (IDs follow the range queries)
	k          int     // k of every kNN query
	side       float64 // range query side
	objPerRnd  int     // object reports per round
	qryPerRnd  int     // query moves per round
	rounds     int     // forward rounds; the script is played forward, then backward
	dt         float64 // scenario seconds per round (the paper's Δt = 5 s)
}

// move is one scripted report: population index, the position it
// reports, and the position it held before (what the backward pass
// reports when the round is undone).
type move struct {
	idx      int32
	to, from geo.Point
}

// round is the reports of one evaluation period.
type round struct {
	objs []move
	qrys []move // positions are region centres / focal points
}

// script is a workload's complete input: the bootstrap population and a
// fixed number of rounds. Playing the rounds forward and then backward
// (each backward round restoring the positions its forward twin
// overwrote) returns the population to its bootstrap state, so any
// number of steps can be drawn from a script of constant size, and the
// state after step n depends only on n.
type script struct {
	spec   scriptSpec
	objs0  []geo.Point // bootstrap position per moving object, then per stationary object
	qrys0  []geo.Point // bootstrap centre per query (ranges first, then kNN)
	rounds []round
	genS   float64 // wall seconds spent generating (gen.script_s)
}

func (s *script) numObjects() int { return len(s.objs0) }

func objectID(i int) core.ObjectID { return core.ObjectID(i + 1) }
func queryID(j int) core.QueryID   { return core.QueryID(j + 1) }

// recordingSink captures what gen.Workload.Tick reports.
type recordingSink struct {
	objs []core.ObjectUpdate
	qrys []core.QueryUpdate
}

func (r *recordingSink) ReportObject(u core.ObjectUpdate) { r.objs = append(r.objs, u) }
func (r *recordingSink) ReportQuery(u core.QueryUpdate)   { r.qrys = append(r.qrys, u) }

// buildScript generates a script from the seed exactly as internal/bench
// builds the paper's Figure 5 workload: a generated city, travellers
// scattered for an hour along its roads, then rounds in which a sampled
// share of objects and of query centres travel for dt and report.
func buildScript(spec scriptSpec, seed int64) *script {
	start := time.Now()
	net := roadnet.Generate(roadnet.Config{Seed: seed})
	world := gen.MustNewWorld(gen.Config{Net: net, NumObjects: spec.objects, Seed: seed})
	nq := spec.ranges + spec.knns
	wl := gen.NewWorkload(world, nq, spec.side, seed)
	wl.World.Advance(3600)
	wl.Queries.Advance(3600)

	s := &script{spec: spec}
	s.objs0 = make([]geo.Point, spec.objects, spec.objects+spec.stationary)
	for i := range s.objs0 {
		s.objs0[i], _ = world.Object(i)
	}
	if spec.stationary > 0 {
		// Stationary objects sit where an independent scattered
		// population came to rest, so they share the roads' skew.
		st := gen.MustNewWorld(gen.Config{Net: net, NumObjects: spec.stationary, Seed: seed + 104729})
		st.Advance(3600)
		for i := 0; i < spec.stationary; i++ {
			p, _ := st.Object(i)
			s.objs0 = append(s.objs0, p)
		}
	}
	s.qrys0 = make([]geo.Point, nq)
	for j := range s.qrys0 {
		s.qrys0[j], _ = wl.Queries.Object(j)
	}

	objCur := append([]geo.Point(nil), s.objs0...)
	qryCur := append([]geo.Point(nil), s.qrys0...)
	objRate := float64(spec.objPerRnd) / float64(spec.objects)
	qryRate := float64(spec.qryPerRnd) / float64(nq)
	sink := &recordingSink{}
	s.rounds = make([]round, spec.rounds)
	for r := range s.rounds {
		sink.objs, sink.qrys = sink.objs[:0], sink.qrys[:0]
		wl.Tick(sink, spec.dt, objRate, qryRate)
		rd := round{objs: make([]move, len(sink.objs)), qrys: make([]move, len(sink.qrys))}
		for i, u := range sink.objs {
			idx := int(u.ID) - 1
			rd.objs[i] = move{idx: int32(idx), to: u.Loc, from: objCur[idx]}
			objCur[idx] = u.Loc
		}
		for i, u := range sink.qrys {
			idx := int(u.ID) - 1
			c := u.Region.Center()
			rd.qrys[i] = move{idx: int32(idx), to: c, from: qryCur[idx]}
			qryCur[idx] = c
		}
		s.rounds[r] = rd
	}
	s.genS = time.Since(start).Seconds()
	return s
}

// objectUpdate is the report that puts object i at p.
func (s *script) objectUpdate(i int, p geo.Point, t float64) core.ObjectUpdate {
	kind := core.Moving
	if i >= s.spec.objects {
		kind = core.Stationary
	}
	return core.ObjectUpdate{ID: objectID(i), Kind: kind, Loc: p, T: t}
}

// queryUpdate is the report that centres query j at p.
func (s *script) queryUpdate(j int, p geo.Point, t float64) core.QueryUpdate {
	if j >= s.spec.ranges {
		return core.QueryUpdate{ID: queryID(j), Kind: core.KNN, Focal: p, K: s.spec.k, T: t}
	}
	return core.QueryUpdate{ID: queryID(j), Kind: core.Range, Region: geo.RectAt(p, s.spec.side), T: t}
}

// step returns the reports of step n (n ≥ 0) of the endless
// forward-then-backward replay, as (round, backward).
func (s *script) step(n int) (rd *round, backward bool) {
	r := len(s.rounds)
	n %= 2 * r
	if n < r {
		return &s.rounds[n], false
	}
	return &s.rounds[2*r-1-n], true
}

// forStep calls fn for each scripted move of step n, in report order,
// with the position the move leaves its object or query at. A backward
// round is played in reverse order so an object that reported twice in
// a round ends where it started.
func (s *script) forStep(n int, fn func(isQuery bool, idx int, p geo.Point)) {
	rd, back := s.step(n)
	if !back {
		for _, m := range rd.objs {
			fn(false, int(m.idx), m.to)
		}
		for _, m := range rd.qrys {
			fn(true, int(m.idx), m.to)
		}
		return
	}
	for i := len(rd.objs) - 1; i >= 0; i-- {
		fn(false, int(rd.objs[i].idx), rd.objs[i].from)
	}
	for i := len(rd.qrys) - 1; i >= 0; i-- {
		fn(true, int(rd.qrys[i].idx), rd.qrys[i].from)
	}
}

// stepReports is the number of reports step n hands in.
func (s *script) stepReports(n int) int {
	rd, _ := s.step(n)
	return len(rd.objs) + len(rd.qrys)
}

// playStep hands step n's reports to sink.
func (s *script) playStep(n int, t float64, sink gen.Sink) {
	s.forStep(n, func(isQuery bool, idx int, p geo.Point) {
		if isQuery {
			sink.ReportQuery(s.queryUpdate(idx, p, t))
		} else {
			sink.ReportObject(s.objectUpdate(idx, p, t))
		}
	})
}

// bootstrap hands the whole population to sink.
func (s *script) bootstrap(sink gen.Sink) {
	for i, p := range s.objs0 {
		sink.ReportObject(s.objectUpdate(i, p, 0))
	}
	for j, p := range s.qrys0 {
		sink.ReportQuery(s.queryUpdate(j, p, 0))
	}
}

// probeSet is the instrumented part of a TCP workload's population:
// tiny stationary range queries on the road network, each watched by a
// few probe objects that toggle between just inside and just outside
// it. Every probe report therefore yields exactly one ± update, which
// is how delivery latency is stamped without mirroring the answers.
type probeSet struct {
	centres []geo.Point // per probe query
	perQ    int         // probe objects per probe query
}

const (
	probeObjectBase = 1 << 24 // probe object IDs start here
	probeQueryBase  = 1 << 24 // probe query IDs start here
	probeSide       = 1e-4    // probe query side
)

func newProbeSet(seed int64, queries, perQ int) *probeSet {
	net := roadnet.Generate(roadnet.Config{Seed: seed})
	w := gen.MustNewWorld(gen.Config{Net: net, NumObjects: queries, Seed: seed + 15485863})
	w.Advance(3600)
	p := &probeSet{centres: make([]geo.Point, queries), perQ: perQ}
	rng := rand.New(rand.NewSource(seed + 32452843))
	for j := range p.centres {
		c, _ := w.Object(j)
		// Nudge off the road by a fraction of the probe side so two
		// probes scattered onto one intersection stay distinct.
		c.X += (rng.Float64() - 0.5) * probeSide
		c.Y += (rng.Float64() - 0.5) * probeSide
		p.centres[j] = geo.Pt(clamp01(c.X), clamp01(c.Y))
	}
	return p
}

func clamp01(v float64) float64 {
	const margin = 2 * probeSide
	if v < margin {
		return margin
	}
	if v > 1-margin {
		return 1 - margin
	}
	return v
}

func (p *probeSet) numObjects() int { return len(p.centres) * p.perQ }
func (p *probeSet) numQueries() int { return len(p.centres) }

func (p *probeSet) objectID(i int) core.ObjectID { return core.ObjectID(probeObjectBase + i) }
func (p *probeSet) queryID(j int) core.QueryID   { return core.QueryID(probeQueryBase + j) }

// queryOf returns the probe query object i toggles against.
func (p *probeSet) queryOf(i int) int { return i / p.perQ }

func (p *probeSet) queryUpdate(j int) core.QueryUpdate {
	return core.QueryUpdate{ID: p.queryID(j), Kind: core.Range, Region: geo.RectAt(p.centres[j], probeSide)}
}

// objectUpdate puts probe object i just inside or just outside its query.
func (p *probeSet) objectUpdate(i int, inside bool, t float64) core.ObjectUpdate {
	c := p.centres[p.queryOf(i)]
	// Each of a query's objects sits at its own offset along y so they
	// never coincide.
	c.Y += (float64(i%p.perQ) - float64(p.perQ-1)/2) * probeSide / float64(2*p.perQ)
	if !inside {
		c.X += probeSide
	}
	return core.ObjectUpdate{ID: p.objectID(i), Kind: core.Moving, Loc: c, T: t}
}
