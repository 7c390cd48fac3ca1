package shard

import (
	"fmt"
	"slices"
	"testing"

	"cqp/internal/core"
	"cqp/internal/testutil/scenario"
)

// TestJournalRebuildReproducesEngine pins the engine's memorylessness:
// a core.Engine's state is a pure function of (latest report per
// object, latest definition per query, last step time). An engine
// rebuilt from exactly that compacted journal must, from then on,
// produce byte-identical update batches and answers when driven in
// lockstep with the engine that lived through the full history. If
// this test breaks, fix the engine property, not this test.
func TestJournalRebuildReproducesEngine(t *testing.T) {
	for _, seed := range []int64{1, 2, 7} {
		for _, rebuildAt := range []int{1, 13, 40} {
			t.Run(fmt.Sprintf("seed=%d/rebuild=%d", seed, rebuildAt), func(t *testing.T) {
				// No rejected reports: the router filters them before a
				// tile sees them.
				g := scenario.NewGen(seed, scenario.Velocity|scenario.Waypoints|scenario.KNN|
					scenario.ObjectRemovals|scenario.QueryRemovals|scenario.KindChanges|scenario.MultiReport)
				j := &journaled{Engine: core.MustNewEngine(g.Options()), opt: g.Options(), rebuildAt: rebuildAt,
					objs: map[core.ObjectID]core.ObjectUpdate{}, qrys: map[core.QueryID]core.QueryUpdate{}}
				scenario.Run(t, g, scenario.Config{
					Steps: 70, SameStream: true, Procs: []core.Processor{core.MustNewEngine(g.Options()), j},
				})
			})
		}
	}
}

// journaled is a core.Engine that keeps the compacted journal, the
// latest report per ID with removals deleting, and that at step
// rebuildAt is replaced by an engine rebuilt from its journal: replay
// the journal in ascending ID order, then one discarded step at the
// last step time.
type journaled struct {
	*core.Engine
	opt       core.Options
	rebuildAt int
	steps     int
	last      float64
	objs      map[core.ObjectID]core.ObjectUpdate
	qrys      map[core.QueryID]core.QueryUpdate
	pendObjs  []core.ObjectUpdate
	pendQrys  []core.QueryUpdate
}

func (j *journaled) ReportObject(u core.ObjectUpdate) {
	j.pendObjs = append(j.pendObjs, u)
	j.Engine.ReportObject(u)
}

func (j *journaled) ReportQuery(u core.QueryUpdate) {
	j.pendQrys = append(j.pendQrys, u)
	j.Engine.ReportQuery(u)
}

func (j *journaled) Step(now float64) []core.Update {
	if j.steps == j.rebuildAt {
		j.Engine = core.MustNewEngine(j.opt)
		for _, id := range sortedKeys(j.objs) {
			j.Engine.ReportObject(j.objs[id])
		}
		for _, id := range sortedKeys(j.qrys) {
			j.Engine.ReportQuery(j.qrys[id])
		}
		if j.steps > 0 {
			j.Engine.StepAppend(nil, j.last)
		}
		for _, u := range j.pendObjs {
			j.Engine.ReportObject(u)
		}
		for _, u := range j.pendQrys {
			j.Engine.ReportQuery(u)
		}
	}
	for _, u := range j.pendObjs {
		fold(j.objs, u.ID, u, u.Remove)
	}
	for _, u := range j.pendQrys {
		fold(j.qrys, u.ID, u, u.Remove)
	}
	j.pendObjs, j.pendQrys = j.pendObjs[:0], j.pendQrys[:0]
	j.steps++
	j.last = now
	return j.Engine.Step(now)
}

func fold[K comparable, V any](journal map[K]V, id K, u V, remove bool) {
	if remove {
		delete(journal, id)
	} else {
		journal[id] = u
	}
}

func sortedKeys[K core.ObjectID | core.QueryID, V any](m map[K]V) []K {
	ids := make([]K, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
