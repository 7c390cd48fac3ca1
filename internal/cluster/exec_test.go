package cluster

import (
	"fmt"
	"os"
	"testing"

	"cqp/internal/shard"
	"cqp/internal/testutil/leakcheck"
)

// TestMain lets the test binary double as the worker executable: when
// ExecSpawner re-executes it with the CQP_CLUSTER_* environment set,
// the process becomes a tile worker instead of running tests — the same
// dial-back re-exec pattern cmd/cqp-cluster uses. The test path runs
// under leakcheck: a coordinator, slot, or spawner goroutine that
// outlives its Close fails the package.
func TestMain(m *testing.M) {
	if handled, err := RunWorkerFromEnv(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(leakcheck.Run(m))
}

// TestExecSIGKILLBetweenSteps runs the differential workload against
// real worker processes over TCP and SIGKILLs live workers between
// steps — the abrupt, no-goodbye death the failure model is built
// around. The merged stream must stay bit-identical to the in-process
// sharded engine's through every kill, and the cluster must heal fully
// (processes respawned, tiles resynced back) while staying identical.
func TestExecSIGKILLBetweenSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	spawner, err := NewExecSpawner([]string{os.Args[0]})
	if err != nil {
		t.Fatal(err)
	}
	kills := map[int]int{8: 0, 9: 1, 20: 0}
	killed := 0
	runClusterDifferential(t, clusterDiffConfig{
		seed: 6, rows: 2, cols: 2, workers: 2, steps: 32, settle: true,
		spawner: spawner,
		before: func(step int, _ *shard.Engine, cl *Cluster) {
			if slot, ok := kills[step]; ok && cl.KillWorker(slot) {
				killed++ // SIGKILL: execProcess.Kill never asks nicely
			}
		},
	})
	if killed == 0 {
		t.Fatal("no worker was ever up to kill")
	}
}

// TestExecWorkerRespawnIncarnations checks the dial-back routing under
// churn: every respawn negotiates a fresh incarnation, and the slot
// only ever trusts the incarnation it spawned.
func TestExecWorkerRespawnIncarnations(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	spawner, err := NewExecSpawner([]string{os.Args[0]})
	if err != nil {
		t.Fatal(err)
	}
	// Two kills, each delivered only once the slot is actually live again
	// (steps outpace respawn, so fixed step numbers could hit a dead slot).
	kills := 0
	runClusterDifferential(t, clusterDiffConfig{
		seed: 8, rows: 1, cols: 2, workers: 1, steps: 24, settle: true,
		spawner: spawner,
		before: func(step int, _ *shard.Engine, cl *Cluster) {
			if step >= 6 && kills < 2 && cl.KillWorker(0) {
				kills++
			}
		},
		after: func(cl *Cluster) {
			st := cl.slots[0].current()
			if st == nil {
				t.Fatal("slot 0 down after settle")
			}
			if want := uint64(1 + kills); st.incarnation < want {
				t.Errorf("slot 0 incarnation = %d after %d kills, want >= %d", st.incarnation, kills, want)
			}
			// Settling requires the respawned incarnations to have resynced.
			if got := cl.m.resyncs.Value(); got < uint64(kills) {
				t.Errorf("resyncs = %d after %d kills, want >= %d", got, kills, kills)
			}
		},
	})
	if kills == 0 {
		t.Fatal("no kill was ever delivered")
	}
}
