package cluster

import (
	"fmt"
	"testing"
	"time"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/shard"
)

// TestDifferentialClusterVsSharded is the cluster's central correctness
// property: the coordinator with worker-process tiles must produce a
// merged update stream BIT-IDENTICAL to the in-process sharded engine's
// for the same workload — same updates in the same order every step —
// plus identical answers, committed answers, and recovery diffs. The
// workers here are in-process over net.Pipe, so the only difference
// under test is the transport.
func TestDifferentialClusterVsSharded(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 42} {
		for _, cfg := range [][3]int{{2, 2, 2}, {1, 4, 3}, {2, 2, 1}} {
			seed, cfg := seed, cfg
			t.Run(fmt.Sprintf("seed=%d/grid=%dx%d/workers=%d", seed, cfg[0], cfg[1], cfg[2]), func(t *testing.T) {
				runClusterDifferential(t, clusterDiffConfig{
					seed: seed, rows: cfg[0], cols: cfg[1], workers: cfg[2], steps: 80,
				})
			})
		}
	}
}

type clusterDiffConfig struct {
	seed    int64
	rows    int
	cols    int
	workers int
	steps   int

	// spawner overrides the default fault-free PipeSpawner (the chaos
	// suites install a fault-wrapped one).
	spawner Spawner

	// disturb, when set, runs before each step — the chaos suites kill
	// workers and toggle fault scenarios here.
	disturb func(step int, cl *Cluster)

	// disturbBoth, when set, runs before each step with both engines —
	// the repartition suite queues identical splits and merges on the
	// reference and the cluster so their partitions stay in lockstep.
	disturbBoth func(step int, ref *shard.Engine, cl *Cluster)

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

func runClusterDifferential(t *testing.T, cfg clusterDiffConfig) {
	t.Helper()
	w := newWorkload(cfg.seed)
	copt := core.Options{
		Bounds:            geo.R(0, 0, 1, 1),
		GridN:             1 + w.rng.Intn(12),
		PredictiveHorizon: 50,
	}
	sopt := shard.Options{Core: copt, Rows: cfg.rows, Cols: cfg.cols}
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

	// Every report and step goes through the protocol layer, which the
	// committed-answer and recovery assertions read.
	pref, pcl := core.NewProtocol(ref), core.NewProtocol(cl)
	var ledger core.Stats // the cluster's ledger after the previous step
	stepBoth := func(step int) {
		t.Helper()
		now := w.step(func(ou *core.ObjectUpdate, qu *core.QueryUpdate) {
			if ou != nil {
				pref.ReportObject(*ou)
				pcl.ReportObject(*ou)
			}
			if qu != nil {
				pref.ReportQuery(*qu)
				pcl.ReportQuery(*qu)
			}
		})
		a := pref.Step(now)
		b := pcl.Step(now)
		if !updatesEqual(a, b) {
			t.Fatalf("seed %d step %d: merged streams diverge (fallback tiles: %d)\nsharded: %v\ncluster: %v",
				cfg.seed, step, cl.TilesInFallback(), a, b)
		}
		// Each step's whole ledger delta crosses the wire, and a rebuilt
		// backend's journal replay is never counted: the cluster's ledger
		// never decreases and equals the in-process router's.
		got := cl.Stats()
		if !ledgerNonDecreasing(ledger, got) {
			t.Fatalf("seed %d step %d: cluster ledger went backwards\nbefore: %+v\nafter:  %+v", cfg.seed, step, ledger, got)
		}
		ledger = got
		if want := ref.Stats(); got != want {
			t.Fatalf("seed %d step %d: ledgers diverge (fallback tiles: %d)\nsharded: %+v\ncluster: %+v",
				cfg.seed, step, cl.TilesInFallback(), want, got)
		}
		for _, q := range w.queryIDs() {
			ra, ok1 := pref.Answer(q)
			ca, ok2 := pcl.Answer(q)
			if ok1 != ok2 || !idsEqualTest(ra, ca) {
				t.Fatalf("seed %d step %d: query %d answers diverge\nsharded: %v (%v)\ncluster: %v (%v)",
					cfg.seed, step, q, ra, ok1, ca, ok2)
			}
		}
		// Exercise the protocol surface identically on both sides.
		if len(w.queries) > 0 && w.rng.Float64() < 0.2 {
			q := w.pickQuery()
			if x, y := pref.Commit(q), pcl.Commit(q); x != y {
				t.Fatalf("seed %d step %d: Commit(%d) sharded=%v cluster=%v", cfg.seed, step, q, x, y)
			}
			rc, _ := pref.CommittedChecksum(q)
			cc, _ := pcl.CommittedChecksum(q)
			if rc != cc {
				t.Fatalf("seed %d step %d: committed checksums diverge for %d", cfg.seed, step, q)
			}
		}
		if len(w.queries) > 0 && w.rng.Float64() < 0.1 {
			q := w.pickQuery()
			ra, _ := pref.Recover(q)
			ca, _ := pcl.Recover(q)
			if !updatesEqual(ra, ca) {
				t.Fatalf("seed %d step %d: Recover(%d) diverges\nsharded: %v\ncluster: %v", cfg.seed, step, q, ra, ca)
			}
		}
	}

	for step := 0; step < cfg.steps; step++ {
		if cfg.disturb != nil {
			cfg.disturb(step, cl)
		}
		if cfg.disturbBoth != nil {
			cfg.disturbBoth(step, ref, cl)
		}
		stepBoth(step)
	}

	if cfg.settle {
		deadline := time.Now().Add(15 * time.Second)
		step := cfg.steps
		for cl.TilesInFallback() > 0 || cl.NumWorkersUp() < cfg.workers {
			if time.Now().After(deadline) {
				t.Fatalf("cluster did not heal: %d tiles in fallback, %d/%d workers up",
					cl.TilesInFallback(), cl.NumWorkersUp(), cfg.workers)
			}
			stepBoth(step)
			step++
			time.Sleep(2 * time.Millisecond)
		}
		// A healed cluster keeps the stream identical fully remote.
		for i := 0; i < 10; i++ {
			stepBoth(step)
			step++
		}
	}

	if cfg.scrape {
		if got, want := reg.Snapshot()["cluster.tiles.fallback"], int64(cl.TilesInFallback()); got != want {
			t.Errorf("cluster.tiles.fallback = %v, TilesInFallback = %d", got, want)
		}
	}
	if cfg.after != nil {
		cfg.after(cl)
	}
}

// ledgerNonDecreasing reports whether every counter of cur is at least
// its value in prev.
func ledgerNonDecreasing(prev, cur core.Stats) bool {
	p, c := prev.Counters(), cur.Counters()
	for i := range p {
		if *c[i] < *p[i] {
			return false
		}
	}
	return true
}
