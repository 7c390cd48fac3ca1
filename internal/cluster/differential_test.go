package cluster

import (
	"fmt"
	"testing"
	"time"

	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/shard"
	"cqp/internal/testutil/scenario"
)

// clusterVocab is the differential vocabulary the cluster suites draw
// from: moving, predictive and trajectory objects, range, kNN and
// predictive queries, removals, kind changes, and the reports every
// processor must reject.
const clusterVocab = scenario.Velocity | scenario.Waypoints | scenario.Malformed | scenario.OverSpeed |
	scenario.KNN | scenario.ObjectRemovals | scenario.QueryRemovals | scenario.KindChanges

// TestDifferentialClusterVsSharded is the cluster's central correctness
// property: the coordinator with worker-process tiles must produce a
// merged update stream BIT-IDENTICAL to the in-process sharded engine's
// for the same workload — same updates in the same order every step —
// plus identical answers, committed answers, recovery diffs and work
// ledgers. The workers here are in-process over net.Pipe, so the only
// difference under test is the transport. The literal scenarios run
// through a two-worker cluster over the tiling each was written for.
func TestDifferentialClusterVsSharded(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		for _, cfg := range [][3]int{{2, 2, 2}, {1, 4, 3}, {2, 2, 1}} {
			t.Run(fmt.Sprintf("seed=%d/grid=%dx%d/workers=%d", seed, cfg[0], cfg[1], cfg[2]), func(t *testing.T) {
				runClusterDifferential(t, clusterDiffConfig{
					seed: seed, rows: cfg[0], cols: cfg[1], workers: cfg[2], steps: 80,
				})
			})
		}
	}
	for _, s := range scenario.Scripts() {
		t.Run(s.Name, func(t *testing.T) {
			runClusterDifferential(t, clusterDiffConfig{src: s, rows: s.Rows, cols: s.Cols, workers: 2})
		})
	}
}

type clusterDiffConfig struct {
	seed    int64
	rows    int
	cols    int
	workers int
	steps   int

	// src overrides the seeded clusterVocab generator (the literal
	// scenarios).
	src scenario.Source

	// spawner overrides the default fault-free PipeSpawner (the chaos
	// suites install a fault-wrapped one).
	spawner Spawner

	// before, when set, runs before each step with both routers — the
	// chaos suites kill workers and toggle fault scenarios here, and the
	// repartition suite queues identical splits and merges on both so
	// their partitions stay in lockstep.
	before func(step int, ref *shard.Engine, cl *Cluster)

	// afterStep, when set, runs after each step's checks.
	afterStep func(step int, cl *Cluster)

	// settle, when set, requires the cluster to fully return to remote
	// operation after the scripted steps (all workers up, no tiles in
	// fallback) while the stream stays bit-identical.
	settle bool

	// after, when set, runs once all steps (and settling) are done,
	// while the cluster is still open — for post-run assertions that
	// need live slot state.
	after func(cl *Cluster)

	// scrape, when set, gives the cluster a metrics registry and takes
	// snapshots of it on another goroutine for the whole run, as a
	// /metrics scrape would, so the race detector sees the derived
	// gauges read the tile and slot tables while the router changes
	// them.
	scrape bool
}

// runClusterDifferential drives the scenario through a single engine,
// the in-process sharded engine and the cluster: streams and ledgers of
// the last two must be identical at every step.
func runClusterDifferential(t *testing.T, cfg clusterDiffConfig) {
	t.Helper()
	src := cfg.src
	if src == nil {
		src = scenario.NewGen(cfg.seed, clusterVocab)
	}
	sopt := shard.Options{Core: src.Options(), Rows: cfg.rows, Cols: cfg.cols}
	ref, err := shard.New(sopt)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	spawner := cfg.spawner
	if spawner == nil {
		spawner = &PipeSpawner{}
	}
	var reg *obs.Registry
	if cfg.scrape {
		reg = obs.NewRegistry()
		sopt.Core.Metrics = reg
	}
	cl, err := New(Config{
		Shard:             sopt,
		Workers:           cfg.workers,
		Spawner:           spawner,
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  60 * time.Millisecond,
		ResyncTimeout:     2 * time.Second,
		Backoff:           Backoff{Initial: time.Millisecond, Max: 20 * time.Millisecond},
		Seed:              cfg.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cfg.scrape {
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
					reg.Snapshot()
				}
			}
		}()
		defer func() { close(stop); <-done }()
	}

	if up := cl.NumWorkersUp(); up != cfg.workers {
		t.Fatalf("after New: %d/%d workers up", up, cfg.workers)
	}

	run := scenario.Config{
		Steps: cfg.steps, Procs: []core.Processor{ref, cl}, SameStream: true, Ledger: true,
	}
	if cfg.before != nil {
		run.Before = func(step int) { cfg.before(step, ref, cl) }
	}
	if cfg.afterStep != nil {
		run.After = func(step int, _ [][]core.Update) { cfg.afterStep(step, cl) }
	}
	if cfg.settle {
		run.Settle = func() bool { return cl.TilesInFallback() == 0 && cl.NumWorkersUp() == cfg.workers }
	}
	scenario.Run(t, src, run)

	if cfg.scrape {
		if got, want := reg.Snapshot()["cluster.tiles.fallback"], int64(cl.TilesInFallback()); got != want {
			t.Errorf("cluster.tiles.fallback = %v, TilesInFallback = %d", got, want)
		}
	}
	if cfg.after != nil {
		cfg.after(cl)
	}
}
