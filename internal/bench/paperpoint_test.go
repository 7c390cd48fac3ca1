package bench

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"cqp/internal/core"
)

// paperPointScript is the paper's Figure 5 point at laptop scale, recorded
// once per test binary: road network and world seed 1, 20K objects and
// 20K moving range queries of side 0.01, 30 % of each reporting per 5 s
// period, 10 warm-up periods and 40 measured ones.
var paperPointScript = sync.OnceValue(func() *Script {
	cfg := Fig5Config{
		Objects: 20000, Queries: 20000, QuerySide: 0.01,
		Rate: 0.3, QueryRate: 0.3, Warmup: 10, Ticks: 40, DT: 5, Seed: 1,
	}
	return RecordFig5(NewFig5Workload(cfg), cfg)
})

// BenchmarkStepPaperPoint times one evaluation period at the paper point
// (ns/op is one StepAppend into a reused buffer) on one engine and on the
// four-tile router, for three grid resolutions. Run it at -cpu 1,2 to
// separate what the tiles gain from parallelism from what they gain from
// finer grids. Set-up replays the bootstrap and the warm-up untimed;
// after every 40 measured periods the processor is rebuilt, untimed.
// heapMB is the live heap after set-up.
func BenchmarkStepPaperPoint(b *testing.B) {
	if testing.Short() {
		b.Skip("the paper point takes seconds to record")
	}
	s := paperPointScript()
	for _, arm := range []struct {
		name string
		f    Factory
	}{{"engine", EngineFactory}, {"tiles4", tilesFactory(4)}} {
		for _, g := range []int{32, 64, 128} {
			b.Run(fmt.Sprintf("%s/G=%d", arm.name, g), func(b *testing.B) {
				sg := *s
				sg.Opt.GridN = g
				benchScript(b, &sg, arm.f)
			})
		}
	}
}

// benchScript times s's measured steps on processors from f, cycling
// through them; see BenchmarkStepPaperPoint.
func benchScript(b *testing.B, s *Script, f Factory) {
	var (
		p       core.Processor
		done    = func() {}
		updates []core.Update
		ms      runtime.MemStats
	)
	setUp := func() {
		done()
		p, done = f(s.Opt)
		for i := 0; i <= s.Warmup; i++ {
			s.Steps[i].Report(p)
			updates = p.StepAppend(updates[:0], s.Steps[i].Now)
		}
		runtime.GC()
	}
	setUp()
	runtime.ReadMemStats(&ms)
	b.ReportAllocs()
	b.ResetTimer()
	measured := s.Steps[s.Warmup+1:]
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(measured) == 0 {
			b.StopTimer()
			setUp()
			b.StartTimer()
		}
		batch := &measured[i%len(measured)]
		batch.Report(p)
		updates = p.StepAppend(updates[:0], batch.Now)
	}
	b.StopTimer()
	done()
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heapMB")
}
