package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cqp/internal/shard"
)

// repartitioner is the slice of the router surface the lockstep
// drivers need; *shard.Engine and *Cluster (by embedding) satisfy it.
type repartitioner interface {
	LiveTiles() []int
	NumTiles() int
	SplitTile(int) error
	MergeTile(int) error
}

// splitMid queues a split of the middle live tile (by sorted id) —
// an arbitrary but deterministic pick, identical on engines whose
// partitions are in lockstep.
func splitMid(t *testing.T, e repartitioner) {
	t.Helper()
	live := e.LiveTiles()
	if err := e.SplitTile(live[len(live)/2]); err != nil {
		t.Fatal(err)
	}
}

// mergeFirst queues a merge of the first live tile that has a
// mergeable sibling, if any.
func mergeFirst(t *testing.T, e repartitioner) {
	t.Helper()
	for _, id := range e.LiveTiles() {
		if e.MergeTile(id) == nil {
			return
		}
	}
}

// TestDifferentialRepartitionCluster drives mid-run splits and merges
// through the coordinator: the cluster's tiles end up with
// heterogeneous bounds (halves and quarters side by side), every born
// tile is established on its worker through the assign handshake with
// its own Region, retired tiles are dropped worker-side, and the
// merged stream must stay bit-identical to the in-process sharded
// engine repartitioned in lockstep. Two scripted worker kills compose
// repartitioning with journal-rebuild failover: a tile born mid-run
// must rebuild on a fresh worker from its journal and pass the
// checksum resync like any original tile.
func TestDifferentialRepartitionCluster(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		seed := seed
		t.Run("", func(t *testing.T) {
			var last *Cluster
			runClusterDifferential(t, clusterDiffConfig{
				seed: seed, rows: 2, cols: 2, workers: 2, steps: 60, settle: true,
				disturbBoth: func(step int, ref *shard.Engine, cl *Cluster) {
					switch step {
					case 7, 15, 23:
						splitMid(t, ref)
						splitMid(t, cl)
					case 30, 41:
						mergeFirst(t, ref)
						mergeFirst(t, cl)
					case 18:
						cl.KillWorker(0)
					case 33:
						cl.KillWorker(1)
					}
				},
				after: func(cl *Cluster) { last = cl },
			})
			if last.NumTiles() <= 4 {
				t.Fatalf("cluster never grew past the initial partition: %d tiles", last.NumTiles())
			}
			hetero := false
			tiles := last.LiveTiles()
			first := last.TileRect(tiles[0])
			for _, id := range tiles[1:] {
				r := last.TileRect(id)
				if r.Width() != first.Width() || r.Height() != first.Height() {
					hetero = true
					break
				}
			}
			if !hetero {
				t.Fatalf("expected heterogeneous tile bounds after splits+merges; all %d tiles are congruent", len(tiles))
			}
		})
	}
}

// heldSpawner is a PipeSpawner whose respawns (incarnation > 1) fail
// while hold is set, so a test can keep a killed slot down for exactly
// the steps it chooses.
type heldSpawner struct {
	PipeSpawner
	hold atomic.Bool
}

func (s *heldSpawner) Spawn(worker int, incarnation uint64) (Process, error) {
	if incarnation > 1 && s.hold.Load() {
		return nil, errors.New("respawn held")
	}
	return s.PipeSpawner.Spawn(worker, incarnation)
}

// TestMergeRetiresFallbackGauge merges two tiles while their worker is
// down, so both retire while counted in cluster.tiles.fallback. The
// retired tiles must give their counts back: once the worker returns
// and the cluster settles, TilesInFallback must equal the number of
// live tiles not served remotely, which is zero.
func TestMergeRetiresFallbackGauge(t *testing.T) {
	sp := &heldSpawner{}
	sp.hold.Store(true)
	var tilesBeforeMerge int
	runClusterDifferential(t, clusterDiffConfig{
		seed: 5, rows: 2, cols: 2, workers: 1, steps: 14, settle: true,
		spawner: sp,
		disturbBoth: func(step int, ref *shard.Engine, cl *Cluster) {
			switch step {
			case 3:
				splitMid(t, ref)
				splitMid(t, cl)
			case 8:
				cl.KillWorker(0)
				deadline := time.Now().Add(5 * time.Second)
				for cl.NumWorkersUp() > 0 {
					if time.Now().After(deadline) {
						t.Fatal("killed worker never went down")
					}
					time.Sleep(time.Millisecond)
				}
				tilesBeforeMerge = cl.NumTiles()
				mergeFirst(t, ref)
				mergeFirst(t, cl)
			case 9:
				if n := cl.NumTiles(); n != tilesBeforeMerge-1 {
					t.Fatalf("merge did not run: %d tiles, want %d", n, tilesBeforeMerge-1)
				}
			case 11:
				sp.hold.Store(false)
			}
		},
		after: func(cl *Cluster) {
			notRemote := 0
			for _, id := range cl.LiveTiles() {
				if !cl.tile(uint32(id)).remote {
					notRemote++
				}
			}
			if got := cl.TilesInFallback(); got != notRemote || got != 0 {
				t.Fatalf("TilesInFallback = %d, live tiles not remote = %d, want both 0", got, notRemote)
			}
		},
	})
}
