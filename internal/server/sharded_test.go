package server

import (
	"testing"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/geo"
)

// TestShardedServerEndToEnd runs the standard range-query lifecycle
// against a server backed by the 4-shard processor: the network
// behavior must be indistinguishable from the single-engine default.
func TestShardedServerEndToEnd(t *testing.T) {
	s := startServer(t, Config{Shards: 4})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Objects in three different tiles of the 2×2 split, one query
	// spanning all of them.
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(2, 2)})
	c.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(8, 2)})
	c.ReportObject(core.ObjectUpdate{ID: 3, Kind: core.Moving, Loc: geo.Pt(2, 8)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(1, 1, 9, 9)})
	evaluateUntil(t, s, func() bool { return s.NumObjects() == 3 && s.NumQueries() == 1 })
	evaluateUntil(t, s, func() bool {
		ans, ok := c.Answer(1)
		return ok && len(ans) == 3
	})

	// A cross-shard migration that stays inside the query: no updates,
	// answer intact.
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(8, 8), T: 1})
	evaluateUntil(t, s, func() bool { st := s.Stats(); return st.ObjectReports >= 4 })
	if ans, _ := c.Answer(1); len(ans) != 3 {
		t.Fatalf("answer after in-query migration = %v", ans)
	}

	// Leaving the query from the new shard: exactly one negative.
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(9.8, 9.8), T: 2})
	evaluateUntil(t, s, func() bool { st := s.Stats(); return st.NegativeUpdates >= 1 })
	evaluateUntil(t, s, func() bool {
		ans, _ := c.Answer(1)
		return len(ans) == 2
	})

	// Commit flows through the sharded committed-answer bookkeeping.
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	evaluateUntil(t, s, func() bool {
		s.stepMu.Lock()
		defer s.stepMu.Unlock()
		ca, ok := s.engine.CommittedAnswer(1)
		return ok && len(ca) == 2
	})
}

// TestShardsConfigValidation rejects negative shard counts and treats 0
// and 1 as the single engine.
func TestShardsConfigValidation(t *testing.T) {
	if _, err := Listen("127.0.0.1:0", Config{
		Engine: core.Options{Bounds: geo.R(0, 0, 1, 1)},
		Shards: -2,
		Logger: quietLogger(),
	}); err == nil {
		t.Fatal("negative Shards should fail")
	}
	for _, n := range []int{0, 1} {
		s := startServer(t, Config{Shards: n})
		if _, ok := s.engine.Processor.(*core.Engine); !ok {
			t.Fatalf("Shards=%d should run the single core engine, got %T", n, s.engine.Processor)
		}
		s.Close()
	}
}
