package shard

import (
	"fmt"
	"testing"

	"cqp/internal/core"
	"cqp/internal/testutil/scenario"
)

// TestProtocolMultiMoveBatch scripts a query that moves twice in one
// batch. The implicit commit is the answer as of the last completed
// step — what the client actually holds — over every processor, never
// an intermediate answer no step ever streamed.
func TestProtocolMultiMoveBatch(t *testing.T) {
	runScript(t, scenario.Lookup("multi-move-batch"))
}

// TestProtocolDifferential runs one report stream through core.Protocol
// over a single engine and over a four-tile sharded engine and requires
// the two to agree on every query's answer, committed answer, committed
// checksum and recovery diff after every step. The stream carries
// object and query removals, kind changes, re-registrations of removed
// query IDs, and several reports of one query per batch.
func TestProtocolDifferential(t *testing.T) {
	for _, name := range []string{"seed-committed", "kind-change-then-move", "kind-change-reverted"} {
		t.Run(name, func(t *testing.T) { runScript(t, scenario.Lookup(name)) })
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := scenario.NewGen(seed, churnVocab|scenario.MultiReport)
			scenario.Run(t, g, scenario.Config{Steps: 150, Procs: []core.Processor{newScenarioShard(t, g, 2, 2)}})
		})
	}
}

// runScript runs a literal scenario against a sharded engine of the
// tiling it was written for.
func runScript(t *testing.T, s *scenario.Script) {
	scenario.Run(t, s, scenario.Config{Procs: []core.Processor{newScenarioShard(t, s, s.Rows, s.Cols)}})
}
