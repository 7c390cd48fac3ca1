package overtcp_test

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"cqp/internal/core"
	"cqp/internal/server"
	"cqp/internal/testutil/scenario"
	"cqp/internal/testutil/scenario/overtcp"
)

// recording is a Target that keeps what each of its restarts returned.
type recording struct {
	*overtcp.Target
	diffs []map[core.QueryID][]core.Update
}

func (r *recording) Restart() map[core.QueryID][]core.Update {
	d := r.Target.Restart()
	r.diffs = append(r.diffs, d)
	return d
}

// TestRestartRecoveryPaths pins both sides of the wakeup handshake
// across a restart, as the restart-recover script sets them up. With a
// repository, query 1, whose client snapshot is its durable commit,
// recovers by diff, and query 2, whose answer moved past it, gets the
// whole answer. Without one, nothing is durable, so both get the whole
// answer.
func TestRestartRecoveryPaths(t *testing.T) {
	for _, repo := range []bool{true, false} {
		t.Run(fmt.Sprintf("repository=%v", repo), func(t *testing.T) {
			s := scenario.Lookup("restart-recover")
			var cfg server.Config
			want := map[core.QueryID][]core.Update{}
			if repo {
				cfg.RepositoryDir = t.TempDir()
				want[1] = []core.Update{{Query: 1, Object: 1}}
			}
			r := &recording{Target: overtcp.New(t, s, cfg, 2)}
			scenario.Run(t, s, scenario.Config{Targets: []scenario.Target{r}})
			if len(r.diffs) != 1 || !maps.EqualFunc(r.diffs[0], want, slices.Equal[[]core.Update]) {
				t.Fatalf("restarts recovered by diff %v, want one recovering %v", r.diffs, want)
			}
		})
	}
}
