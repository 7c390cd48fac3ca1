package cluster

import (
	"fmt"
	"io"
	"net"

	"cqp/internal/core"
	"cqp/internal/wire"
)

// workerTile is one tile engine hosted by a worker process.
type workerTile struct {
	epoch uint64
	opt   core.Options
	eng   *core.Engine
	buf   []core.Update
}

// ServeWorker hosts tile engines for one coordinator connection and
// blocks until the connection drops. It is deliberately single-threaded:
// frames are processed strictly in arrival order, which (with the
// connection's FIFO delivery) is what lets the coordinator reason about
// Assign/Step/Resync ordering without acknowledgements — and it makes
// the heartbeat echo a true liveness probe, since a worker wedged inside
// a step stops echoing.
//
// The coordinator's journal is the only authoritative state: a worker
// holds nothing that cannot be rebuilt from a ClusterResync frame, so
// ServeWorker never persists anything and treats any protocol anomaly as
// fatal (exit, be respawned, resync — never limp along).
func ServeWorker(conn net.Conn) error {
	defer conn.Close()
	r := wire.NewReader(conn)
	w := wire.NewWriter(conn)
	tiles := make(map[uint32]*workerTile)
	for {
		m, err := r.Read()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch m := m.(type) {
		case wire.Heartbeat:
			if err := w.Write(m); err != nil {
				return err
			}
		case wire.ClusterAssign:
			opt := core.Options{
				Bounds:            m.Bounds,
				GridN:             int(m.GridN),
				PredictiveHorizon: m.PredictiveHorizon,
				Region:            m.Region,
				MaxSpeed:          m.MaxSpeed,
			}
			eng, err := core.NewEngine(opt)
			if err != nil {
				return fmt.Errorf("cluster: assign tile %d: %w", m.Tile, err)
			}
			tiles[m.Tile] = &workerTile{epoch: m.Epoch, opt: opt, eng: eng}
		case wire.ClusterStep:
			t := tiles[m.Tile]
			if t == nil || t.epoch != m.Epoch {
				// On one FIFO connection the Assign for an epoch always
				// precedes its Steps; a mismatch is a coordinator bug or an
				// undetected transport fault. Die visibly and get resynced.
				return fmt.Errorf("cluster: step for tile %d epoch %d (have %v)", m.Tile, m.Epoch, tileEpoch(t))
			}
			for _, u := range m.Objects {
				t.eng.ReportObject(u)
			}
			for _, u := range m.Queries {
				t.eng.ReportQuery(u)
			}
			prev := t.eng.Stats()
			t.buf = t.eng.StepAppend(t.buf[:0], m.Time)
			err := w.Write(wire.ClusterStepResult{
				Tile: m.Tile, Epoch: m.Epoch, Time: m.Time, Updates: t.buf,
				Work: t.eng.Stats().Since(prev),
			})
			if err != nil {
				return err
			}
		case wire.ClusterRetire:
			// A repartition retired the tile; its state was re-homed onto
			// born tiles coordinator-side. Stale epochs are fine: the id is
			// never reused, so whatever engine sits in the slot is garbage.
			delete(tiles, m.Tile)
		case wire.ClusterResync:
			t := tiles[m.Tile]
			if t == nil || t.epoch != m.Epoch {
				return fmt.Errorf("cluster: resync for tile %d epoch %d (have %v)", m.Tile, m.Epoch, tileEpoch(t))
			}
			eng, err := core.NewEngine(t.opt)
			if err != nil {
				return fmt.Errorf("cluster: resync tile %d: %w", m.Tile, err)
			}
			for _, u := range m.Objects {
				eng.ReportObject(u)
			}
			for _, u := range m.Queries {
				eng.ReportQuery(u)
			}
			if m.HasStep {
				// Re-establish the pre-failure evaluation state; the batch is
				// discarded — the coordinator's merge state already reflects
				// these memberships.
				eng.StepAppend(nil, m.LastStep)
			}
			t.eng = eng
			qids := make([]core.QueryID, 0, len(m.Queries))
			for _, q := range m.Queries {
				qids = append(qids, q.ID)
			}
			err = w.Write(wire.ClusterResyncAck{
				Tile: m.Tile, Epoch: m.Epoch, Checksum: stateChecksum(eng, qids),
			})
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: unexpected %T from coordinator", m)
		}
	}
}

func tileEpoch(t *workerTile) any {
	if t == nil {
		return "no tile"
	}
	return t.epoch
}

// stateChecksum folds the answers of the given queries — which must be
// in ascending ID order on both sides — into one fingerprint of a tile
// engine's membership state. The coordinator compares the resyncing
// worker's fold against its own fallback engine's before trusting the
// worker again: the two engines were rebuilt from the same journal, so
// any difference means divergence (version skew, undetected corruption)
// and the worker must not be handed the tile.
func stateChecksum(eng *core.Engine, qids []core.QueryID) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, q := range qids {
		ids, _ := eng.Answer(q)
		h = (h ^ uint64(q)) * prime
		h = (h ^ core.ChecksumIDs(ids)) * prime
	}
	return h
}
