package server

import (
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

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
