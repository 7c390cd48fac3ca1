package shard

import (
	"slices"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/testutil/scenario"
)

// TestDifferentialRepartitionMidRun extends the five-seed differential
// property to repartitioning: the same randomized hotspot workload runs
// through a fixed 2×2 shard engine, one that is split and merged mid-run
// by the manual hooks (hottest tile split, coldest sibling pair merged),
// and one driven by the automatic load policy. All three merged update
// streams must be BIT-IDENTICAL at every step — a repartition may never
// show a seam — and the answers must match a single core engine's.
// The last case moves its predictive objects, which pins the born
// tiles' share of a kNN query's coverage in handoff.
func TestDifferentialRepartitionMidRun(t *testing.T) {
	const hot = churnVocab | scenario.Hotspot
	for _, c := range []struct {
		seed  int64
		vocab scenario.Vocab
	}{{1, hot}, {2, hot}, {7, hot}, {42, hot}, {1234, hot}, {1, hot | scenario.Velocity}} {
		t.Run("", func(t *testing.T) {
			g := scenario.NewGen(c.seed, c.vocab)
			fixed := newScenarioShard(t, g, 2, 2)
			manual := newScenarioShard(t, g, 2, 2)
			// The policy engine gets its own registry so the test can read
			// the split/merge counters; metrics never affect the stream.
			// With no Clock the policy scores queue-depth EWMAs, which are
			// a pure function of the reports — so its stream stays
			// deterministic.
			reg := obs.NewRegistry()
			mopt := g.Options()
			mopt.Metrics = reg
			auto := MustNew(Options{
				Core: mopt, Rows: 2, Cols: 2,
				Repartition: RepartitionOptions{Enable: true, Interval: 5, MaxTiles: 12},
			})
			defer auto.Close()
			scenario.Run(t, g, scenario.Config{
				Steps: 100, Procs: []core.Processor{fixed, manual, auto}, SameStream: true,
				// Mid-run repartitions on the manual engine only: split the
				// hottest tile, merge the coldest sibling pair.
				Before: func(step int) {
					if step%7 == 3 {
						splitHottest(t, manual)
					}
					if step%11 == 8 {
						mergeColdest(t, manual)
					}
				},
			})
			if manual.NumTiles() < 3 {
				t.Fatalf("manual engine never grew past %d tiles; repartitions did not run", manual.NumTiles())
			}
			if reg.Flatten()["shard.tile_splits"] == 0 {
				t.Fatalf("hotspot workload never triggered the split policy: %v tiles", auto.NumTiles())
			}
		})
	}
}

// splitHottest splits the live tile owning the most objects (lowest id
// on ties — the choice must be deterministic).
func splitHottest(t *testing.T, e *Engine) {
	t.Helper()
	hot, best := -1, -1
	for _, id := range e.live {
		if e.objCount[id] > best {
			hot, best = id, e.objCount[id]
		}
	}
	if hot < 0 {
		return
	}
	if err := e.SplitTile(hot); err != nil {
		t.Fatalf("SplitTile(%d): %v", hot, err)
	}
}

// mergeColdest merges the sibling leaf pair with the fewest combined
// owned objects, if any pair is mergeable.
func mergeColdest(t *testing.T, e *Engine) {
	t.Helper()
	bestT, bestScore := -1, -1
	for p := range e.nodes {
		k0, k1 := e.nodes[p].kids[0], e.nodes[p].kids[1]
		if k0 < 0 || k1 < 0 {
			continue
		}
		t0, t1 := e.nodes[k0].tile, e.nodes[k1].tile
		if t0 < 0 || t1 < 0 {
			continue
		}
		if s := e.objCount[t0] + e.objCount[t1]; bestT < 0 || s < bestScore {
			bestT, bestScore = t0, s
		}
	}
	if bestT < 0 {
		return
	}
	if err := e.MergeTile(bestT); err != nil {
		t.Fatalf("MergeTile(%d): %v", bestT, err)
	}
}

// TestHaloCrossingQueryAcrossSplit pins the satellite guarantee that
// region validation is tile-aware: a query whose region crosses a
// future split boundary registers identically before and after the
// split — same answer, no spurious updates from the handoff, and a
// fresh identical query registered after the split sees the same
// answer as the survivor.
func TestHaloCrossingQueryAcrossSplit(t *testing.T) {
	e := MustNew(Options{
		Core: core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 8},
		Rows: 1, Cols: 2,
	})
	defer e.Close()

	// Tile 0 is [0,0.5]×[0,1]; splitting it cuts at y=0.5 (taller than
	// wide). The query straddles both the tile seam at x=0.5 and the
	// future split seam at y=0.5.
	region := geo.R(0.4, 0.4, 0.6, 0.6)
	for i, p := range []geo.Point{
		geo.Pt(0.45, 0.45), geo.Pt(0.45, 0.55), // tile 0, either side of the future cut
		geo.Pt(0.55, 0.45), geo.Pt(0.55, 0.55), // tile 1
		geo.Pt(0.1, 0.9), // outside the region
	} {
		e.ReportObject(core.ObjectUpdate{ID: core.ObjectID(i + 1), Kind: core.Moving, Loc: p})
	}
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: region})
	e.Step(1)

	before, _ := e.Answer(1)
	want := []core.ObjectID{1, 2, 3, 4}
	if !slices.Equal(before, want) {
		t.Fatalf("answer before split: %v, want %v", before, want)
	}

	if err := e.SplitTile(0); err != nil {
		t.Fatal(err)
	}
	upd := e.Step(2)
	if len(upd) != 0 {
		t.Fatalf("split leaked into the merged stream: %v", upd)
	}
	after, _ := e.Answer(1)
	if !slices.Equal(after, want) {
		t.Fatalf("answer after split: %v, want %v", after, want)
	}

	// A fresh identical query must register identically after the split.
	e.ReportQuery(core.QueryUpdate{ID: 2, Kind: core.Range, Region: region})
	upd = e.Step(3)
	for _, u := range upd {
		if u.Query != 2 || !u.Positive {
			t.Fatalf("unexpected update after re-registration: %v", u)
		}
	}
	twin, _ := e.Answer(2)
	if !slices.Equal(twin, want) {
		t.Fatalf("fresh query after split: %v, want %v", twin, want)
	}
}

// TestPredictiveFanoutBounded pins the swept-region routing bound: with
// a MaxSpeed cap a predictive query replicates only to tiles
// overlapping its region expanded by MaxSpeed·PredictiveHorizon plus
// the halo (one grid cell, 0.125 here) — 9 of the 16 tiles, not every
// tile — and the shard.query_replicas histogram records that fan-out.
// Without a cap it must broadcast.
func TestPredictiveFanoutBounded(t *testing.T) {
	reg := obs.NewRegistry()
	e := MustNew(Options{
		Core: core.Options{
			Bounds: geo.R(0, 0, 1, 1), GridN: 8,
			PredictiveHorizon: 10, MaxSpeed: 0.004,
			Metrics: reg,
		},
		Rows: 4, Cols: 4,
	})
	defer e.Close()

	region := geo.R(0.30, 0.30, 0.45, 0.45) // inside the second row/col of tiles
	e.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.PredictiveRange, Region: region, T1: 0, T2: 10})
	e.Step(1)

	qi := e.qrys[1]
	reach := 0.004*10 + e.halo
	want := e.tilesOverlapping(region.Expand(reach), nil)
	if !slices.Equal(qi.coverage, want) {
		t.Fatalf("predictive coverage %v, want swept-region tiles %v", qi.coverage, want)
	}
	if len(qi.coverage) != 9 {
		t.Fatalf("swept-region routing did not bound fan-out: %d of %d tiles, want 9", len(qi.coverage), e.NumTiles())
	}
	if got := reg.Flatten()["shard.query_replicas.count"]; got != 1 {
		t.Fatalf("replica fan-out histogram saw %v observations, want 1", got)
	}

	// Without a speed cap the same query must replicate everywhere.
	e2 := MustNew(Options{
		Core: core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 8, PredictiveHorizon: 10},
		Rows: 4, Cols: 4,
	})
	defer e2.Close()
	e2.ReportQuery(core.QueryUpdate{ID: 1, Kind: core.PredictiveRange, Region: region, T1: 0, T2: 10})
	e2.Step(1)
	if got := len(e2.qrys[1].coverage); got != e2.NumTiles() {
		t.Fatalf("uncapped predictive query covers %d of %d tiles", got, e2.NumTiles())
	}
}

// TestRepartitionObservability checks the split/merge counters and the
// tile-area gauge move when the partition does.
func TestRepartitionObservability(t *testing.T) {
	reg := obs.NewRegistry()
	e := MustNew(Options{
		Core: core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: 4, Metrics: reg},
		Rows: 1, Cols: 2,
	})
	defer e.Close()
	e.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(0.25, 0.5)})
	e.Step(1)

	if got := reg.Flatten()["shard.tile_area_max_ppm"]; got != 500000 {
		t.Fatalf("tile area gauge %v, want 500000 ppm for a 1x2 grid", got)
	}
	if err := e.SplitTile(0); err != nil {
		t.Fatal(err)
	}
	e.Step(2)
	flat := reg.Flatten()
	if flat["shard.tile_splits"] != 1 || flat["shard.tiles"] != 3 {
		t.Fatalf("after split: splits=%v tiles=%v", flat["shard.tile_splits"], flat["shard.tiles"])
	}
	// The two halves of tile 0 are quarters; tile 1 still holds half.
	if flat["shard.tile_area_max_ppm"] != 500000 {
		t.Fatalf("tile area gauge after split: %v", flat["shard.tile_area_max_ppm"])
	}
	if err := e.MergeTile(2); err != nil {
		t.Fatal(err)
	}
	e.Step(3)
	flat = reg.Flatten()
	if flat["shard.tile_merges"] != 1 || flat["shard.tiles"] != 2 {
		t.Fatalf("after merge: merges=%v tiles=%v", flat["shard.tile_merges"], flat["shard.tiles"])
	}
}
