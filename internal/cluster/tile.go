package cluster

import (
	"fmt"
	"slices"
	"time"

	"cqp/internal/core"
	"cqp/internal/wire"
)

// clusterTile is the coordinator-side transport of one tile: a
// shard.Tile whose backend is an engine in a worker process, with an
// in-process fallback engine it can rebuild at any moment from its
// journal. The shard router drives it exactly like an in-process tile —
// a clusterTile never fails a step, it degrades.
//
// Self-healing rests on the tile engines being memoryless: a tile
// engine's answer state is a pure function of (latest report per owned
// object, latest definition per replica query, last step time). The
// journal keeps exactly those inputs, compacted, so a fresh engine fed
// the journal and stepped once at lastStep reproduces the dead
// backend's membership state bit-for-bit — and a failed step, re-run on
// that rebuilt state with the same staged reports and timestamp, yields
// the byte-identical update batch the worker would have produced. That
// is what keeps the merged stream canonical across worker deaths.
//
// Epochs gate every remote frame: each (re)establishment of a worker
// backend bumps the tile's epoch, and results or acks stamped with an
// older epoch are discarded, so no frame from a previous incarnation
// can leak into the current state.
type clusterTile struct {
	id   int
	cl   *Cluster
	slot *workerSlot
	opt  core.Options

	epoch uint64

	// Staged reports: routed since the last step, not yet evaluated.
	objStage []core.ObjectUpdate
	qryStage []core.QueryUpdate

	// The journal: latest absorbed report per owned object, latest
	// absorbed definition per replica query, and the last step time.
	jObjs    map[core.ObjectID]core.ObjectUpdate
	jQrys    map[core.QueryID]core.QueryUpdate
	hasStep  bool
	lastStep float64

	remote    bool   // worker backend is live and trusted
	remoteInc uint64 // incarnation the worker backend was built under
	inFbGauge bool   // counted in cluster.tiles.fallback
	fb        *core.Engine
	fbBuf     []core.Update
	work      core.Stats

	resc chan wire.ClusterStepResult
	ackc chan wire.ClusterResyncAck

	// In-flight step bookkeeping between StepBegin and StepWait.
	stepNow    float64
	stepRemote bool
	stepDown   <-chan struct{}
	fbc        chan []core.Update
	lastNs     int64
}

func newClusterTile(cl *Cluster, id int, opt core.Options, slot *workerSlot) *clusterTile {
	return &clusterTile{
		id:    id,
		cl:    cl,
		slot:  slot,
		opt:   opt,
		jObjs: make(map[core.ObjectID]core.ObjectUpdate),
		jQrys: make(map[core.QueryID]core.QueryUpdate),
		resc:  make(chan wire.ClusterStepResult, 2),
		ackc:  make(chan wire.ClusterResyncAck, 2),
		fbc:   make(chan []core.Update, 1),
	}
}

func (t *clusterTile) ReportObject(u core.ObjectUpdate) { t.objStage = append(t.objStage, u) }
func (t *clusterTile) ReportQuery(u core.QueryUpdate)   { t.qryStage = append(t.qryStage, u) }
func (t *clusterTile) Pending() int                     { return len(t.objStage) + len(t.qryStage) }

func (t *clusterTile) StepBegin(now float64) {
	t.stepNow = now
	t.establish()
	if t.remote {
		if st := t.slot.current(); st != nil && st.incarnation == t.remoteInc {
			t.drainResults()
			// The frame gets copies of the staged slices: the sender encodes
			// concurrently with the router's next appends.
			msg := wire.ClusterStep{
				Tile: uint32(t.id), Epoch: t.epoch, Time: now,
				Objects: slices.Clone(t.objStage),
				Queries: slices.Clone(t.qryStage),
			}
			if st.enqueue(msg) {
				t.stepRemote = true
				t.stepDown = st.down
				return
			}
		}
		t.toFallback()
	}
	// Degraded path: evaluate in-process. The goroutine mirrors the
	// in-process tile's worker so fallback tiles still step in parallel;
	// the fbc handoff orders the buffer both ways.
	t.stepRemote = false
	t.ensureFallback()
	for _, u := range t.objStage {
		t.fb.ReportObject(u)
	}
	for _, u := range t.qryStage {
		t.fb.ReportQuery(u)
	}
	go func(eng *core.Engine, now float64) {
		begin := t.cl.m.tracer.Begin()
		t.fbBuf = eng.StepAppend(t.fbBuf[:0], now)
		t.lastNs = t.cl.m.tracer.Since(begin)
		t.fbc <- t.fbBuf
	}(t.fb, now)
}

func (t *clusterTile) StepWait() []core.Update {
	if !t.stepRemote {
		out := <-t.fbc
		t.fold()
		t.work = t.fb.Stats()
		return out
	}
	for {
		select {
		case res := <-t.resc:
			if res.Epoch != t.epoch {
				t.cl.m.staleEpochs.Inc()
				continue
			}
			t.fold()
			t.work = core.Stats{
				KNNRecomputes:   res.KNNRecomputes,
				CandidateChecks: res.CandidateChecks,
				RegionEvalCells: res.RegionEvalCells,
			}
			t.lastNs = 0
			return res.Updates
		case <-t.stepDown:
			// The worker died mid-step. Rebuild its pre-step state from the
			// journal, re-run this step locally, and answer as if nothing
			// happened: determinism makes the redone batch identical to the
			// one the worker would have returned — even if its result was
			// already in flight (it is discarded by the epoch gate later).
			t.toFallback()
			t.ensureFallback()
			for _, u := range t.objStage {
				t.fb.ReportObject(u)
			}
			for _, u := range t.qryStage {
				t.fb.ReportQuery(u)
			}
			begin := t.cl.m.tracer.Begin()
			t.fbBuf = t.fb.StepAppend(t.fbBuf[:0], t.stepNow)
			t.lastNs = t.cl.m.tracer.Since(begin)
			t.fold()
			t.work = t.fb.Stats()
			return t.fbBuf
		}
	}
}

func (t *clusterTile) StepNanos() int64 { return t.lastNs }

// WorkStats returns the backend's evaluation-work counters. They are
// best-effort across failovers: a rebuilt backend re-counts the replay
// work, so unlike the update stream they are not bit-stable under
// faults.
func (t *clusterTile) WorkStats() core.Stats { return t.work }

// Close retires the tile. When a repartition destroys a remote tile the
// worker is told to free its engine; delivery is best-effort (a dead or
// congested link just leaves the engine to be reaped with the process),
// and tile ids are never reused, so no further frame can target it. A
// tile retired while in fallback gives back its cluster.tiles.fallback
// count: nothing would ever establish it again to do so.
func (t *clusterTile) Close() error {
	if t.inFbGauge {
		t.cl.m.fallback.Add(-1)
		t.inFbGauge = false
	}
	if t.remote {
		if st := t.slot.current(); st != nil && st.incarnation == t.remoteInc {
			st.enqueue(wire.ClusterRetire{Tile: uint32(t.id), Epoch: t.epoch})
		}
	}
	return nil
}

// fold absorbs the staged reports into the journal after a successful
// step; last-write-wins per ID keeps the journal compact (its size is
// bounded by live objects + live replicas, not by history).
func (t *clusterTile) fold() {
	for _, u := range t.objStage {
		if u.Remove {
			delete(t.jObjs, u.ID)
		} else {
			t.jObjs[u.ID] = u
		}
	}
	for _, u := range t.qryStage {
		if u.Remove {
			delete(t.jQrys, u.ID)
		} else {
			t.jQrys[u.ID] = u
		}
	}
	t.objStage = t.objStage[:0]
	t.qryStage = t.qryStage[:0]
	t.hasStep = true
	t.lastStep = t.stepNow
}

// fresh reports whether the tile has no state a worker would need to
// rebuild — assignment alone suffices, no resync handshake.
func (t *clusterTile) fresh() bool {
	return !t.hasStep && len(t.jObjs) == 0 && len(t.jQrys) == 0
}

// establish reconciles the tile with its slot before a step: nothing to
// do in steady state; hand the tile back to a recovered worker via the
// assign/resync/ack handshake; or drop to fallback when the slot is
// down.
func (t *clusterTile) establish() {
	st := t.slot.current()
	if st == nil {
		if t.remote {
			t.toFallback()
		}
		return
	}
	if t.remote && st.incarnation == t.remoteInc {
		return
	}
	t.epoch++
	assign := wire.ClusterAssign{
		Tile: uint32(t.id), Epoch: t.epoch,
		Bounds:            t.opt.Bounds,
		GridN:             uint32(t.opt.GridN),
		PredictiveHorizon: t.opt.PredictiveHorizon,
		// Tile-local options: the worker's engine must be built over the
		// same halo-expanded sub-rectangle as the fallback engine, or the
		// resync state checksums could never match a repartitioned tile.
		Region:   t.opt.Region,
		MaxSpeed: t.opt.MaxSpeed,
		Replica:  t.opt.Replica,
	}
	if t.fresh() {
		if st.enqueue(assign) {
			t.setRemote(st.incarnation)
		} else {
			t.toFallback()
		}
		return
	}
	// The fallback engine doubles as the authoritative copy the worker's
	// rebuild is verified against.
	t.ensureFallback()
	if !st.enqueue(assign) || !st.enqueue(t.resyncMsg()) {
		t.toFallback()
		return
	}
	want := stateChecksum(t.fb, t.journalQueryIDs())
	timer := time.NewTimer(t.cl.cfg.ResyncTimeout)
	defer timer.Stop()
	for {
		select {
		case ack := <-t.ackc:
			if ack.Epoch != t.epoch {
				t.cl.m.staleEpochs.Inc()
				continue
			}
			if ack.Checksum != want {
				// Divergent rebuild: never hand the tile to this backend.
				t.cl.m.resyncFails.Inc()
				st.fail()
				t.toFallback()
				return
			}
			t.cl.m.resyncs.Inc()
			t.setRemote(st.incarnation)
			t.fb = nil
			return
		case <-st.down:
			t.toFallback()
			return
		case <-timer.C:
			// A link that cannot complete a resync in time is not a link we
			// trust with steps; burn it and retry with a fresh process.
			t.cl.m.resyncFails.Inc()
			st.fail()
			t.toFallback()
			return
		}
	}
}

func (t *clusterTile) setRemote(inc uint64) {
	t.remote = true
	t.remoteInc = inc
	if t.inFbGauge {
		t.cl.m.fallback.Add(-1)
		t.inFbGauge = false
	}
}

func (t *clusterTile) toFallback() {
	t.remote = false
	if !t.inFbGauge {
		t.cl.m.fallback.Add(1)
		t.inFbGauge = true
	}
}

// ensureFallback rebuilds the in-process engine from the journal: replay
// every latest report and definition, then one discarded step at
// lastStep to re-establish the evaluation state the backend had after
// its last absorbed step.
func (t *clusterTile) ensureFallback() {
	if t.fb != nil {
		return
	}
	eng, err := core.NewEngine(t.opt)
	if err != nil {
		// Options were validated when the cluster was constructed.
		panic(fmt.Sprintf("cluster: fallback engine for validated options: %v", err))
	}
	for _, id := range t.journalObjectIDs() {
		eng.ReportObject(t.jObjs[id])
	}
	for _, id := range t.journalQueryIDs() {
		eng.ReportQuery(t.jQrys[id])
	}
	if t.hasStep {
		eng.StepAppend(nil, t.lastStep)
	}
	t.fb = eng
}

// journalObjectIDs returns the journaled object IDs in ascending order;
// replay and wire frames must not inherit map iteration order.
func (t *clusterTile) journalObjectIDs() []core.ObjectID {
	ids := make([]core.ObjectID, 0, len(t.jObjs))
	for id := range t.jObjs {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// journalQueryIDs returns the journaled query IDs in ascending order —
// also the order both sides of the resync handshake fold stateChecksum.
func (t *clusterTile) journalQueryIDs() []core.QueryID {
	ids := make([]core.QueryID, 0, len(t.jQrys))
	for id := range t.jQrys {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// resyncMsg builds the compacted authoritative snapshot of the tile.
func (t *clusterTile) resyncMsg() wire.ClusterResync {
	objs := make([]core.ObjectUpdate, 0, len(t.jObjs))
	for _, id := range t.journalObjectIDs() {
		objs = append(objs, t.jObjs[id])
	}
	qrys := make([]core.QueryUpdate, 0, len(t.jQrys))
	for _, id := range t.journalQueryIDs() {
		qrys = append(qrys, t.jQrys[id])
	}
	return wire.ClusterResync{
		Tile: uint32(t.id), Epoch: t.epoch,
		HasStep: t.hasStep, LastStep: t.lastStep,
		Objects: objs, Queries: qrys,
	}
}

// drainResults empties leftovers from previous epochs (a result that
// arrived after its step was redone locally) before a new remote send.
func (t *clusterTile) drainResults() {
	for {
		select {
		case <-t.resc:
			t.cl.m.staleEpochs.Inc()
		default:
			return
		}
	}
}
