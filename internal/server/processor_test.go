package server

import (
	"testing"
	"time"

	"cqp/internal/client"
	"cqp/internal/cluster"
	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/shard"
)

// TestInjectedClusterProcessor runs the standard range-query lifecycle
// against a server whose processor is the multi-process cluster
// coordinator (workers over net.Pipe): the network behavior must be
// indistinguishable from the single-engine default, and killing a
// worker mid-session must be invisible to the client.
func TestInjectedClusterProcessor(t *testing.T) {
	copt := core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}
	cl, err := cluster.New(cluster.Config{
		Shard:             shard.Options{Core: copt, Rows: 2, Cols: 2},
		Workers:           2,
		Spawner:           &cluster.PipeSpawner{},
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  60 * time.Millisecond,
		Backoff:           cluster.Backoff{Initial: time.Millisecond, Max: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Engine: copt, Processor: cl})

	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(2, 2)})
	c.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(8, 2)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(1, 1, 9, 9)})
	evaluateUntil(t, s, func() bool {
		ans, ok := c.Answer(1)
		return ok && len(ans) == 2
	})

	// Kill a worker; the coordinator's fallback + respawn keeps serving.
	cl.KillWorker(0)
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(9.8, 9.8), T: 1})
	evaluateUntil(t, s, func() bool {
		ans, _ := c.Answer(1)
		return len(ans) == 1
	})
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	evaluateUntil(t, s, func() bool {
		s.stepMu.Lock()
		defer s.stepMu.Unlock()
		ca, ok := s.engine.CommittedAnswer(1)
		return ok && len(ca) == 1
	})

	// The cluster heals while the server keeps evaluating.
	evaluateUntil(t, s, func() bool {
		return cl.TilesInFallback() == 0 && cl.NumWorkersUp() == 2
	})
}
