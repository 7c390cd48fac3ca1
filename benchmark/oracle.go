package main

import (
	"slices"

	"cqp/internal/baseline/snapshot"
	"cqp/internal/core"
	"cqp/internal/geo"
)

// oracle is the reference every workload's answers are compared with:
// the naive snapshot baseline, which re-evaluates every query from
// scratch. It is fed the latest scripted report of every object and
// query — the state the same report stream leaves behind — and never
// sees the system under test.
type oracle struct {
	eng *snapshot.Engine
}

func newOracle(opt core.Options) *oracle {
	eng, err := snapshot.New(opt)
	if err != nil {
		panic(err) // the options are the benchmark's own constants
	}
	return &oracle{eng: eng}
}

// population is the current scripted state of a workload: one report
// per live object and query.
type population struct {
	objs []core.ObjectUpdate
	qrys []core.QueryUpdate
}

// check evaluates the population from scratch and compares every
// query's answer with what answer returns (Processor.Answer or
// client.Answer). It returns the queries compared and those that differ.
func (o *oracle) check(pop population, answer func(core.QueryID) ([]core.ObjectID, bool)) (compared, mismatched int) {
	for _, u := range pop.objs {
		o.eng.ReportObject(u)
	}
	for _, u := range pop.qrys {
		o.eng.ReportQuery(u)
	}
	// A kNN answer is only determined up to ties at the k-th distance
	// (travellers park on the same intersections), so kNN answers are
	// compared by their sorted distances, range answers by identity.
	knn := make(map[core.QueryID]geo.Point)
	for _, q := range pop.qrys {
		if q.Kind == core.KNN {
			knn[q.ID] = q.Focal
		}
	}
	var loc map[core.ObjectID]geo.Point
	if len(knn) > 0 {
		loc = make(map[core.ObjectID]geo.Point, len(pop.objs))
		for _, u := range pop.objs {
			loc[u.ID] = u.Loc
		}
	}
	dists := func(ids []core.ObjectID, focal geo.Point) []float64 {
		d := make([]float64, len(ids))
		for i, id := range ids {
			d[i] = loc[id].Dist(focal)
		}
		slices.Sort(d)
		return d
	}
	for _, snap := range o.eng.Step(0) {
		compared++
		got, ok := answer(snap.Query)
		same := ok && slices.Equal(got, snap.Objects)
		if focal, isKNN := knn[snap.Query]; ok && !same && isKNN {
			same = slices.Equal(dists(got, focal), dists(snap.Objects, focal))
		}
		if !same {
			mismatched++
		}
	}
	if compared != len(pop.qrys) {
		mismatched += len(pop.qrys) - compared
	}
	return compared, mismatched
}

// replay folds an update stream into one order-independent checksum per
// query, the way a subscriber's answer evolves: the paper's invariant is
// that replaying every emitted update over the previous answer yields
// the current answer, so after any step the fold must equal the
// processor's AnswerChecksum. A ± update both toggle membership, hence
// one XOR each; a duplicated or dropped update leaves the fold wrong.
type replay map[core.QueryID]uint64

func (r replay) apply(updates []core.Update) {
	for _, u := range updates {
		r[u.Query] ^= core.ChecksumIDs([]core.ObjectID{u.Object})
	}
}

// check compares the fold of every query in qrys with the processor's
// checksum and returns the number that differ.
func (r replay) check(qrys []core.QueryUpdate, checksum func(core.QueryID) (uint64, bool)) (mismatched int) {
	for _, q := range qrys {
		got, ok := checksum(q.ID)
		if !ok || got != r[q.ID] {
			mismatched++
		}
	}
	return mismatched
}

// tracker follows the scripted position of every object and query so the
// oracle can be handed the current population at any step.
type tracker struct {
	s    *script
	objs []geo.Point
	qrys []geo.Point
}

func newTracker(s *script) *tracker {
	return &tracker{s: s, objs: slices.Clone(s.objs0), qrys: slices.Clone(s.qrys0)}
}

// step moves the tracked population through step n of the script.
func (t *tracker) step(n int) {
	t.s.forStep(n, func(isQuery bool, idx int, p geo.Point) {
		if isQuery {
			t.qrys[idx] = p
		} else {
			t.objs[idx] = p
		}
	})
}

func (t *tracker) population() population {
	pop := population{
		objs: make([]core.ObjectUpdate, len(t.objs)),
		qrys: make([]core.QueryUpdate, len(t.qrys)),
	}
	for i, p := range t.objs {
		pop.objs[i] = t.s.objectUpdate(i, p, 0)
	}
	for j, p := range t.qrys {
		pop.qrys[j] = t.s.queryUpdate(j, p, 0)
	}
	return pop
}
