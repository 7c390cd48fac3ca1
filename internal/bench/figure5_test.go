package bench

import "testing"

// TestFigure5Pinned pins the paper's evaluation in exact bytes at a
// small seeded point: for each query side and object update rate, the
// incremental stream's bytes against the complete answers' (Figure 5),
// out-of-sync recovery's diff bytes against a full resend (§3.3), and
// one predictive point. Every processor must give the same bytes: the
// engine, the four-tile router and the engine behind core.Protocol. A
// redundant (−O, +O) pair anywhere in a stream changes its incremental
// bytes.
func TestFigure5Pinned(t *testing.T) {
	s := pinnedScripts()
	type bytes struct{ inc, full int64 }
	want := map[fig5Point]bytes{
		{0.01, 0.1}: {21641, 360960},
		{0.01, 0.3}: {28543, 359488},
		{0.01, 1.0}: {61659, 361304},
		{0.04, 0.1}: {26962, 925080},
		{0.04, 0.3}: {37672, 923240},
		{0.04, 1.0}: {70397, 919640},
	}
	wantPredictive := bytes{30294, 1062944}
	// Recovery after 1 and after 4 missed periods: diff and full bytes.
	wantRecovery := []bytes{{17, 289}, {34, 273}}

	for _, p := range pinnedProcessors {
		for _, side := range pinnedSides {
			for _, rate := range pinnedRates {
				pt := fig5Point{side, rate}
				r := RunFig5(s.fig5[pt], p.f)
				if got := (bytes{r.IncrementalBytes, r.CompleteBytes}); got != want[pt] {
					t.Errorf("%s, side %.2f, rate %.0f%%: incremental/complete bytes %v, want %v",
						p.name, side, 100*rate, got, want[pt])
				}
			}
		}
		r := RunFig5(s.predictive, p.f)
		if got := (bytes{r.IncrementalBytes, r.CompleteBytes}); got != wantPredictive {
			t.Errorf("%s, predictive: incremental/complete bytes %v, want %v", p.name, got, wantPredictive)
		}
		for i, rr := range RunRecoveryScript(s.fig5[fig5Point{0.04, 1.0}], p.f, []int{1, 4}) {
			got := bytes{int64(rr.DiffKB * 1024), int64(rr.FullKB * 1024)}
			if got != wantRecovery[i] {
				t.Errorf("%s, recovery after %d periods: diff/full bytes %v, want %v",
					p.name, rr.MissedTicks, got, wantRecovery[i])
			}
		}
	}
}
