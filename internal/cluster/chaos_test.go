package cluster

import (
	"net"
	"testing"
	"time"

	"cqp/internal/faultnet"
	"cqp/internal/shard"
)

// TestChaosWorkerKills murders live worker processes at scripted points
// — including repeatedly killing the same slot — and requires the
// merged stream to stay bit-identical to the in-process sharded
// engine's through every death, fallback, respawn, and resync, and the
// cluster to end fully healed (all workers up, no tiles in fallback).
func TestChaosWorkerKills(t *testing.T) {
	kills := map[int]int{5: 0, 6: 1, 12: 0, 13: 0, 25: 1, 26: 0}
	runClusterDifferential(t, clusterDiffConfig{
		seed: 3, rows: 2, cols: 2, workers: 2, steps: 40, settle: true,
		before: func(step int, _ *shard.Engine, cl *Cluster) {
			if slot, ok := kills[step]; ok {
				cl.KillWorker(slot)
			}
		},
	})
}

// TestChaosFaultStorms drives the cluster through deterministic
// faultnet storms on every worker link — resets, partial writes, bit
// corruption (caught by the cluster frames' trailing checksums), stalls
// (caught by the heartbeat deadline), and a mixed storm — and requires
// the merged stream to stay bit-identical throughout, then full healing
// once the weather clears.
func TestChaosFaultStorms(t *testing.T) {
	scenarios := []struct {
		name   string
		faults faultnet.Faults
	}{
		{"reset", faultnet.Faults{Seed: 11, Grace: 20, PReset: 0.02}},
		{"partial", faultnet.Faults{Seed: 12, Grace: 20, PPartialWrite: 0.02}},
		{"corrupt", faultnet.Faults{Seed: 13, Grace: 20, PCorrupt: 0.02}},
		{"stall", faultnet.Faults{Seed: 14, Grace: 20, PStall: 0.01}},
		{"mixed", faultnet.Faults{
			Seed: 15, Grace: 10,
			PReset: 0.01, PCorrupt: 0.01, PStall: 0.005,
			PDelay: 0.05, MaxDelay: time.Millisecond,
		}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			in := faultnet.New(sc.faults)
			in.Disable() // calm until the storm window opens
			const stormStart, stormEnd = 8, 30
			var last *Cluster
			runClusterDifferential(t, clusterDiffConfig{
				seed: 9, rows: 2, cols: 2, workers: 2, steps: 42, settle: true,
				spawner: &PipeSpawner{WrapConn: func(c net.Conn) net.Conn { return in.Wrap(c) }},
				before: func(step int, _ *shard.Engine, cl *Cluster) {
					last = cl
					switch step {
					case stormStart:
						in.Enable()
					case stormEnd:
						in.Disable()
					}
				},
			})
			if restarts := last.m.restarts.Value(); restarts == 0 {
				t.Errorf("storm %q drew no blood: no worker restarts", sc.name)
			} else {
				t.Logf("storm %q: %d restarts, %d resyncs, %d stale epochs",
					sc.name, restarts, last.m.resyncs.Value(), last.m.staleEpochs.Value())
			}
		})
	}
}

// TestChaosMetrics runs a kill-and-heal pass and checks the cluster
// instruments moved the way the story says: the killed worker's tiles
// fell back in the step the kill hit, deaths counted as restarts,
// recoveries as resyncs, and no tile left in fallback. The respawn is
// held until that step has run: a supervisor that respawned and
// resynced within its 1 ms backoff would otherwise let the step run
// remote on the fresh worker.
func TestChaosMetrics(t *testing.T) {
	sp := &heldSpawner{from: 2}
	var killed, sawFallback bool
	var last *Cluster
	runClusterDifferential(t, clusterDiffConfig{
		seed: 5, rows: 2, cols: 2, workers: 2, steps: 30, settle: true, spawner: sp,
		before: func(step int, _ *shard.Engine, cl *Cluster) {
			last = cl
			if step != 10 {
				return
			}
			// A heartbeat timeout on a loaded box may have the slot down
			// for a moment; the drill kills a live worker.
			for deadline := time.Now().Add(5 * time.Second); cl.NumWorkersUp() < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			sp.hold.Store(true)
			killed = cl.KillWorker(0)
		},
		afterStep: func(step int, cl *Cluster) {
			if step == 10 {
				sawFallback = cl.TilesInFallback() > 0
				sp.hold.Store(false)
			}
		},
	})
	if !killed {
		t.Fatal("KillWorker(0) found no live worker at step 10")
	}
	if !sawFallback {
		t.Fatal("kill at step 10 put no tile in fallback in that step")
	}
	if got := last.m.restarts.Value(); got == 0 {
		t.Error("cluster.worker.restarts never incremented")
	}
	if got := last.m.resyncs.Value(); got == 0 {
		t.Error("cluster.resyncs never incremented")
	}
	if got := last.TilesInFallback(); got != 0 {
		t.Errorf("TilesInFallback = %d after healing, want 0", got)
	}
}
