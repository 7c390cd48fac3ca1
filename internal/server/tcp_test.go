package server_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cqp/internal/core"
	"cqp/internal/server"
	"cqp/internal/shard"
	"cqp/internal/testutil/scenario"
	"cqp/internal/testutil/scenario/overtcp"
)

// TestDifferentialTCP plays seeded and literal scenarios through a live
// server and its clients, in lockstep with the driver's reference
// engine and a direct engine: every client's replayed stream, answer,
// commit acknowledgment and recovery diff must match, the stream must
// equal the direct engine's less the updates of queries the batch
// removed, and the server's work ledger must equal the direct engine's.
// The Lattice vocabulary brings exact kNN distance ties and region
// edges on cell boundaries to the same checks. The restart runs close
// the server at seeded steps and open a new one, on the same repository
// or without one: every client must recover by diff exactly when its
// snapshot is the query's durable commit, and every check must hold
// again before the next reports.
func TestDifferentialTCP(t *testing.T) {
	vocabs := []scenario.Vocab{
		scenario.Repeats | scenario.ObjectRemovals,
		scenario.MultiReport | scenario.QueryRemovals | scenario.KindChanges,
		scenario.KNN | scenario.Velocity | scenario.Waypoints,
		scenario.KNN | scenario.QueryRemovals | scenario.ObjectRemovals | scenario.NaNs,
		scenario.All,
		scenario.KNN | scenario.Hotspot | scenario.QueryRemovals | scenario.ObjectRemovals | scenario.Lattice,
	}
	for _, vocab := range vocabs {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("vocab=%#x/seed=%d", vocab, seed), func(t *testing.T) {
				g := scenario.NewGen(seed, vocab)
				runTCP(t, g, server.Config{}, 60, core.MustNewEngine(g.Options()))
			})
		}
	}
	restarts := []struct {
		name  string
		vocab scenario.Vocab
		repo  bool
	}{
		{"restart/with-repository", scenario.All | scenario.Restart, true},
		{"restart/without-repository", scenario.KNN | scenario.ObjectRemovals | scenario.QueryRemovals | scenario.Restart, false},
	}
	for _, r := range restarts {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/vocab=%#x/seed=%d", r.name, r.vocab, seed), func(t *testing.T) {
				g := scenario.NewGen(seed, r.vocab)
				var cfg server.Config
				if r.repo {
					cfg.RepositoryDir = t.TempDir()
				}
				runTCP(t, g, cfg, 60, core.MustNewEngine(g.Options()))
			})
		}
	}
	for _, s := range scenario.Scripts() {
		// seed-committed seeds the server's Protocol directly, and
		// migrate-in-removed-query pins the stream of a removed query,
		// which the server drops with its subscription.
		if s.Name == "seed-committed" || s.Name == "migrate-in-removed-query" {
			continue
		}
		t.Run(s.Name, func(t *testing.T) { runScript(t, s) })
	}
}

// runTCP runs src for steps (0: until dry) through cfg's server over
// two feed sessions, holding its stream and its work ledger to direct's.
func runTCP(t *testing.T, src scenario.Source, cfg server.Config, steps int, direct core.Processor) {
	scenario.Run(t, src, scenario.Config{
		Steps:      steps,
		Procs:      []core.Processor{direct},
		Targets:    []scenario.Target{overtcp.New(t, src, cfg, 2)},
		SameStream: true,
		Ledger:     true,
	})
}

// runScript runs a literal scenario through a server over the engine.
// A script that restarts the server gives it a repository, so its
// durable commits survive the restart.
func runScript(t *testing.T, s *scenario.Script) {
	var cfg server.Config
	if slices.ContainsFunc(s.Batches, func(b scenario.Batch) bool { return b.Restart }) {
		cfg.RepositoryDir = t.TempDir()
	}
	runTCP(t, s, cfg, 0, core.MustNewEngine(s.Options()))
}

// TestEndToEndRangeQuery: an object entering one range query, then
// leaving it for another, reaches the clients as exactly one positive,
// then one negative and one positive.
func TestEndToEndRangeQuery(t *testing.T) {
	runScript(t, scenario.Lookup("migrate-between-disjoint"))
}

// TestCommitMatchesSilently: a commit of the up-to-date answer is
// acknowledged, not healed with a full answer (overtcp fails a heal),
// and the stream goes on.
func TestCommitMatchesSilently(t *testing.T) {
	runScript(t, scenario.Lookup("commit-recover"))
}

// TestMultipleClientsIsolation holds every session to its own query's
// updates: overtcp fails a step in which a session receives another's.
func TestMultipleClientsIsolation(t *testing.T) {
	g := scenario.NewGen(4, scenario.Repeats|scenario.KNN)
	runTCP(t, g, server.Config{}, 20, core.MustNewEngine(g.Options()))
}

// TestConcurrentClientsStress is the soak: eight feed sessions report
// concurrently while the ticker evaluates every 2 ms, and query sessions
// commit, drop and recover between steps. Every step, every client must
// hold the reference's answers, every commit must be acknowledged and
// every recovery incremental. Run with -race to exercise the locking.
func TestConcurrentClientsStress(t *testing.T) {
	g := scenario.NewGen(8, scenario.Repeats|scenario.Velocity|scenario.KNN)
	tg := overtcp.New(t, g, server.Config{Interval: 2 * time.Millisecond}, 8)
	scenario.Run(t, g, scenario.Config{Steps: 40, Targets: []scenario.Target{tg}})
}

// TestShardedServerEndToEnd plays objects crossing the seams of a 2×2
// router behind the server: the clients must see what a direct router
// streams.
func TestShardedServerEndToEnd(t *testing.T) {
	g := scenario.NewGen(3, scenario.Repeats|scenario.KNN|scenario.QueryRemovals)
	runTCP(t, g, server.Config{Processor: newRouter(t, g)}, 30, newRouter(t, g))
}

// newRouter builds a 2×2 router over src's options, closed when the
// test ends.
func newRouter(t *testing.T, src scenario.Source) *shard.Engine {
	t.Helper()
	e, err := shard.New(shard.Options{Core: src.Options(), Rows: 2, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}
