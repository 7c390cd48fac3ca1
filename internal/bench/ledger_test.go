package bench

import (
	"testing"

	"cqp/internal/core"
	"cqp/internal/gen"
	"cqp/internal/shard"
)

// TestWorkLedgerPinned pins the exact work ledger of a small seeded
// Figure 5 point plus stationary kNN queries (pinnedScripts' first), for one engine and for the
// four-tile router's sum over its tiles. The paper's savings are work the update stream does not
// show: re-evaluating the overlap A_new ∩ A_old, or handing the phase-3
// apply memberships the object already has, leaves every update
// unchanged and only grows these counts (DESIGN.md §6 lists the
// mechanisms, the mutations and the counters that catch them). The
// counts are deterministic: tile interleaving does not change a tile's
// work, so the router's sum holds at any GOMAXPROCS.
func TestWorkLedgerPinned(t *testing.T) {
	s := pinnedScripts().ledger
	eng := core.MustNewEngine(s.Opt)
	sh, err := shard.NewN(s.Opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	for i := range s.Steps {
		s.Steps[i].Report(fanout{sinks: []gen.Sink{eng, sh}})
		eng.Step(s.Steps[i].Now)
		sh.Step(s.Steps[i].Now)
	}

	for _, c := range []struct {
		name      string
		got, want core.Stats
	}{
		{"core.Engine", eng.Stats(), core.Stats{
			Steps: 7, ObjectReports: 5600, ObjectsIndexed: 5600,
			QueryReports: 5800, RegionEvalCells: 29506, CandidateChecks: 288327,
			JoinFindings: 4569, KNNRecomputes: 1345,
			PositiveUpdates: 26566, NegativeUpdates: 1982,
		}},
		// The router's own step, report and update counts, plus its
		// tiles' work: finer tile grids and replicated queries make the
		// work counters differ from the single engine's.
		{"shard.NewN(opt, 4)", sh.Stats(), core.Stats{
			Steps: 7, ObjectReports: 5600, ObjectsIndexed: 5600,
			QueryReports: 5800, RegionEvalCells: 59693, CandidateChecks: 310894,
			JoinFindings: 14584, KNNRecomputes: 5193,
			PositiveUpdates: 26566, NegativeUpdates: 1982,
		}},
	} {
		if c.got != c.want {
			t.Errorf("%s ledger\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
	// Travellers on the road network share intersections, so this world
	// holds exact kNN distance ties. The engine, the router's tiles and
	// its merge all break them by ObjectID, so both emit the same updates.
	if e, r := eng.Stats(), sh.Stats(); e.PositiveUpdates != r.PositiveUpdates || e.NegativeUpdates != r.NegativeUpdates {
		t.Errorf("updates: engine +%d −%d, router +%d −%d", e.PositiveUpdates, e.NegativeUpdates, r.PositiveUpdates, r.NegativeUpdates)
	}
}
