package scenario

import (
	"fmt"
	"strings"
	"testing"

	"cqp/internal/core"
)

// TestCoreAgainstCore runs a second core.Engine against the reference
// over every vocabulary shape and every script: two engines fed the
// same batches must pass every check, bit-identical streams and
// ledgers included. The Lattice runs hold kNN answers with exact
// distance ties, and regions whose edges lie on cell boundaries, to
// the oracle exactly. The Waypoints run without Velocity keeps
// predictive objects' swept boxes to their trajectories: velocities
// would stretch most of them over the whole space. The Restart run
// recovers every live query on every processor at its restarts, which
// must keep their committed answers aligned.
func TestCoreAgainstCore(t *testing.T) {
	for _, vocab := range []Vocab{0, All &^ NaNs, All &^ (Repeats | MultiReport | NaNs), All, KNN | Hotspot | Lattice, All | Lattice, Waypoints | Malformed | ObjectRemovals, All | Restart} {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("vocab=%#x/seed=%d", vocab, seed), func(t *testing.T) {
				g := NewGen(seed, vocab)
				Run(t, g, Config{
					Steps:      60,
					Procs:      []core.Processor{core.MustNewEngine(g.Options()), core.MustNewEngine(g.Options())},
					SameStream: true,
					Ledger:     true,
				})
			})
		}
	}
	for _, s := range Scripts() {
		t.Run(s.Name, func(t *testing.T) {
			Run(t, s, Config{Procs: []core.Processor{core.MustNewEngine(s.Options())}})
		})
	}
}

// dropOne is a processor that loses the first update of its first
// non-empty step.
type dropOne struct {
	core.Processor
	dropped bool
}

func (p *dropOne) Step(now float64) []core.Update {
	s := p.Processor.Step(now)
	if !p.dropped && len(s) > 0 {
		p.dropped = true
		return s[1:]
	}
	return s
}

// TestCheckerRejectsDroppedUpdate pins that the checker sees a lost
// update: the processor's answer is right, but its stream no longer
// replays to it.
func TestCheckerRejectsDroppedUpdate(t *testing.T) {
	g := NewGen(1, All)
	err := run(g, Config{Steps: 30, Procs: []core.Processor{&dropOne{Processor: core.MustNewEngine(g.Options())}}})
	if err == nil || !strings.Contains(err.Error(), "processor 1") {
		t.Fatalf("run = %v, want a replay failure of processor 1", err)
	}
}

// TestVocabularyDrawsRejectedReports pins that Malformed and OverSpeed
// draw reports every processor must reject.
func TestVocabularyDrawsRejectedReports(t *testing.T) {
	g := NewGen(1, Malformed|OverSpeed)
	if g.Options().MaxSpeed <= 0 {
		t.Fatal("OverSpeed left MaxSpeed unset")
	}
	rejected := 0
	for i := 0; i < 200; i++ {
		b, _ := g.Next()
		for _, u := range b.Objects {
			if !u.Remove && !core.AcceptObject(&u, g.Options().MaxSpeed) {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("200 batches drew no rejected report")
	}
}
