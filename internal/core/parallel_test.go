package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cqp/internal/geo"
	"cqp/internal/obs"
)

// forkWorkload drives a seeded mixed workload large enough that every
// phase of every step spans many chunks: objects (some predictive) move
// in bulk, range queries slide, and each batch also repeats a query,
// removes and re-registers objects and queries, changes a query's kind,
// and moves kNN focal points, so phase 2's walk interleaves gathered
// and in-place reports. It returns the FNV-64a hash of the canonical
// update stream.
func forkWorkload(e *Engine, steps int) uint64 {
	const objects, ranges, knns, preds = 4000, 1500, 200, 40
	rng := rand.New(rand.NewSource(66))
	h := fnv.New64a()
	var buf [17]byte
	var out []Update
	object := func(i int, now float64) ObjectUpdate {
		u := ObjectUpdate{ID: ObjectID(i), Kind: Moving, Loc: geo.Pt(rng.Float64(), rng.Float64()), T: now}
		if i%10 == 0 {
			u.Kind, u.Vel = Predictive, geo.Vec(rng.Float64()*0.02-0.01, rng.Float64()*0.02-0.01)
		}
		return u
	}
	rangeQ := func(j int, now float64) QueryUpdate {
		return QueryUpdate{ID: QueryID(j), Kind: Range, T: now,
			Region: geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.02+0.06*rng.Float64())}
	}
	for step := 0; step < steps; step++ {
		now := float64(step)
		moveObj, moveQry := objects/2, ranges/2
		if step == 0 {
			moveObj, moveQry = objects, ranges
		}
		for n := 0; n < moveObj; n++ {
			i := 1 + n
			if step > 0 {
				i = 1 + rng.Intn(objects)
			}
			e.ReportObject(object(i, now))
		}
		for n := 0; n < moveQry; n++ {
			j := 1 + n
			if step > 0 {
				j = 1 + rng.Intn(ranges)
			}
			e.ReportQuery(rangeQ(j, now))
		}
		for j := 0; j < knns; j++ {
			if step == 0 || rng.Intn(4) == 0 {
				e.ReportQuery(QueryUpdate{ID: QueryID(ranges + 1 + j), Kind: KNN, T: now,
					Focal: geo.Pt(rng.Float64(), rng.Float64()), K: 1 + j%8})
			}
		}
		for j := 0; j < preds; j++ {
			if step == 0 || rng.Intn(4) == 0 {
				e.ReportQuery(QueryUpdate{ID: QueryID(ranges + knns + 1 + j), Kind: PredictiveRange, T: now,
					Region: geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.1), T1: now + 1, T2: now + 10})
			}
		}
		if step > 0 {
			// A query reported twice, one removed and re-registered, one
			// changing kind, and an object removed and re-added.
			j := 1 + rng.Intn(ranges)
			e.ReportQuery(rangeQ(j, now))
			e.ReportQuery(rangeQ(j, now))
			j = 1 + rng.Intn(ranges)
			e.ReportQuery(QueryUpdate{ID: QueryID(j), Remove: true, T: now})
			e.ReportQuery(rangeQ(j, now))
			j = 1 + rng.Intn(ranges)
			e.ReportQuery(QueryUpdate{ID: QueryID(j), Kind: KNN, Focal: geo.Pt(rng.Float64(), rng.Float64()), K: 3, T: now})
			e.ReportQuery(rangeQ(j, now))
			i := 1 + rng.Intn(objects)
			e.ReportObject(ObjectUpdate{ID: ObjectID(i), Remove: true, T: now})
			e.ReportObject(object(i, now))
		}
		out = e.StepAppend(out[:0], now)
		for _, u := range out {
			binary.LittleEndian.PutUint64(buf[0:], uint64(u.Query))
			binary.LittleEndian.PutUint64(buf[8:], uint64(u.Object))
			buf[16] = 0
			if u.Positive {
				buf[16] = 1
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xff}) // step boundary
	}
	return h.Sum64()
}

// TestStepDeterministicAcrossCPUs pins the canonical stream's hash and
// the work ledger of a workload whose phases fork. The values must be
// the same at any GOMAXPROCS (CI runs it at -cpu 1,2,4): how a phase is
// split into chunks, and which goroutine gathers which chunk, must not
// show in the stream or in Stats. Three engines step at once, so they
// also contend for the process's helpers. Above one CPU the phases
// must actually have forked.
func TestStepDeterministicAcrossCPUs(t *testing.T) {
	const wantHash = 0x1670a6824616b0b
	wantStats := Stats{
		Steps: 8, ObjectReports: 18014, ObjectsIndexed: 15068,
		QueryReports: 7460, RegionEvalCells: 48012, CandidateChecks: 591298,
		JoinFindings: 64199, KNNRecomputes: 1488,
		PositiveUpdates: 106362, NegativeUpdates: 88964,
	}
	reg := obs.NewRegistry()
	engines := make([]*Engine, 3)
	hashes := make([]uint64, len(engines))
	var wg sync.WaitGroup
	for i := range engines {
		engines[i] = MustNewEngine(Options{Bounds: geo.R(0, 0, 1, 1), GridN: 32, Metrics: reg})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hashes[i] = forkWorkload(engines[i], 8)
		}(i)
	}
	wg.Wait()
	for i, e := range engines {
		if hashes[i] != wantHash {
			t.Errorf("engine %d: stream hash %#x, want %#x", i, hashes[i], uint64(wantHash))
		}
		if st := e.Stats(); st != wantStats {
			t.Errorf("engine %d: ledger\n got %+v\nwant %+v", i, st, wantStats)
		}
		if err := e.CheckConsistency(true); err != nil {
			t.Errorf("engine %d: %v", i, err)
		}
	}
	forked := reg.Counter("engine.parallel_phases").Value()
	t.Logf("GOMAXPROCS %d: %d phases forked", runtime.GOMAXPROCS(0), forked)
	if runtime.GOMAXPROCS(0) > 1 && forked == 0 {
		t.Error("no phase forked above one CPU")
	}
}

// TestForkedStepSteadyStateAllocs pins the allocations of steady-state
// steps whose phases fork: each phase gathers in tens of chunks over
// thousands of objects, so an allocation per chunk or per object shows
// at once. A forked step may allocate what a serial one does (one
// allocation: the step's update buffer escapes) and, per helper launch,
// the launch's closure and, when the runtime's free list of exited
// goroutines runs short, a goroutine descriptor.
func TestForkedStepSteadyStateAllocs(t *testing.T) {
	const objects, queries = 4000, 1500
	reg := obs.NewRegistry()
	e := MustNewEngine(Options{Bounds: geo.R(0, 0, 1, 1), GridN: 32, Metrics: reg})
	rng := rand.New(rand.NewSource(1))
	// Every object and query alternates between two places, so after a
	// few steps no slab, answer or scratch buffer grows any further.
	var locs [2][objects]geo.Point
	var regions [2][queries]geo.Rect
	for p := range locs {
		for i := range locs[p] {
			locs[p][i] = geo.Pt(rng.Float64(), rng.Float64())
		}
		for j := range regions[p] {
			regions[p][j] = geo.RectAt(geo.Pt(rng.Float64(), rng.Float64()), 0.05)
		}
	}
	var out []Update
	tick := 0
	step := func() {
		p := tick % 2
		for i := range locs[p] {
			e.ReportObject(ObjectUpdate{ID: ObjectID(i + 1), Kind: Moving, Loc: locs[p][i], T: float64(tick)})
		}
		for j := range regions[p] {
			e.ReportQuery(QueryUpdate{ID: QueryID(j + 1), Kind: Range, Region: regions[p][j], T: float64(tick)})
		}
		out = e.StepAppend(out[:0], float64(tick))
		tick++
	}
	// The warm-up also fills the runtime's free list of exited
	// goroutines, which a launch reuses.
	for range 50 {
		step()
	}
	// Measured by hand: testing.AllocsPerRun runs at GOMAXPROCS 1,
	// where no phase forks.
	const runs = 10
	forked := reg.Counter("engine.parallel_phases").Value()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		step()
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.Mallocs-before.Mallocs) / runs
	forkedPerStep := float64(reg.Counter("engine.parallel_phases").Value()-forked) / runs
	// Each forked phase launches at most GOMAXPROCS−1 helpers.
	budget := 1 + 2*forkedPerStep*float64(runtime.GOMAXPROCS(0)-1)
	t.Logf("forked step: %.1f allocs, %.1f forked phases (budget %.1f)", avg, forkedPerStep, budget)
	if avg > budget {
		t.Errorf("a forked steady-state step allocates %.1f times; budget is %.1f", avg, budget)
	}
}
