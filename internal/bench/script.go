package bench

import (
	"time"

	"cqp/internal/core"
	"cqp/internal/gen"
	"cqp/internal/geo"
	"cqp/internal/roadnet"
	"cqp/internal/wire"
)

// Factory builds a fresh processor over opt — a core.Engine, a
// core.Protocol over one, or the shard router — and returns it with the
// function that releases it.
type Factory func(opt core.Options) (core.Processor, func())

// EngineFactory builds one core.Engine.
func EngineFactory(opt core.Options) (core.Processor, func()) {
	return core.MustNewEngine(opt), func() {}
}

// Batch is one evaluation period's input: the reports, in arrival
// order, and the evaluation time.
type Batch struct {
	Now  float64
	Objs []core.ObjectUpdate
	Qrys []core.QueryUpdate
}

// Report hands the batch's reports to s in arrival order, objects first.
func (b *Batch) Report(s gen.Sink) {
	for _, u := range b.Objs {
		s.ReportObject(u)
	}
	for _, u := range b.Qrys {
		s.ReportQuery(u)
	}
}

// ReportObject and ReportQuery record a report, so a Batch is a gen.Sink
// a workload can report into.
func (b *Batch) ReportObject(u core.ObjectUpdate) { b.Objs = append(b.Objs, u) }
func (b *Batch) ReportQuery(u core.QueryUpdate)   { b.Qrys = append(b.Qrys, u) }

// Script is a workload recorded before it runs: the processor options
// and one batch per step, the bootstrap first. Every processor replays
// identical input, and a timed run times only its steps.
type Script struct {
	Opt     core.Options
	Queries int // range queries 1..Queries are the measured ones
	Warmup  int // steps after the bootstrap that are run but not measured
	Steps   []Batch
}

// NewFig5Workload builds cfg's road-network world and its moving range
// queries, scattered along the roads. Building the world dominates a
// small run's set-up, so tests record several scripts from one.
func NewFig5Workload(cfg Fig5Config) *gen.Workload {
	cfg = cfg.WithDefaults()
	net := roadnet.Generate(roadnet.Config{Seed: cfg.Seed})
	world := gen.MustNewWorld(gen.Config{Net: net, NumObjects: cfg.Objects, Seed: cfg.Seed})
	wl := gen.NewWorkload(world, cfg.Queries, cfg.QuerySide, cfg.Seed)
	// Travellers start exactly on intersections; an hour of travel
	// spreads them along the roads, so initial answers hold no
	// co-located clusters.
	wl.World.Advance(3600)
	wl.Queries.Advance(3600)
	return wl
}

// RecordFig5 records cfg's Figure 5 script from wl's current state: the
// whole population as the bootstrap batch, then cfg.Warmup + cfg.Ticks
// periods. It sets wl.QuerySide to cfg.QuerySide and advances wl.
func RecordFig5(wl *gen.Workload, cfg Fig5Config) *Script {
	cfg = cfg.WithDefaults()
	wl.QuerySide = cfg.QuerySide
	s := &Script{
		Opt:     core.Options{Bounds: geo.R(0, 0, 1, 1), GridN: cfg.GridN},
		Queries: wl.NumQueries,
		Warmup:  cfg.Warmup,
		Steps:   make([]Batch, 1, 1+cfg.Warmup+cfg.Ticks),
	}
	wl.Bootstrap(&s.Steps[0])
	s.Steps[0].Now = wl.World.Now()
	for i := 0; i < cfg.Warmup+cfg.Ticks; i++ {
		var b Batch
		wl.Tick(&b, cfg.DT, cfg.Rate, cfg.QueryRate)
		b.Now = wl.World.Now()
		s.Steps = append(s.Steps, b)
	}
	return s
}

// RunFig5 replays s through a processor from f and measures each step
// after the warm-up: its wall time, the update stream's bytes, and the
// bytes of every measured query's complete answer. The answers are
// replayed from the stream itself, so the complete-answer column holds
// for any processor that keeps the replay contract.
func RunFig5(s *Script, f Factory) Fig5Result {
	p, done := f(s.Opt)
	defer done()
	// A complete answer is fixed-width: a header plus one ID per member.
	empty := int64(wire.EncodedSize(wire.FullAnswer{}))
	perID := int64(wire.EncodedSize(wire.FullAnswer{Objects: make([]core.ObjectID, 1)})) - empty
	size := make([]int64, s.Queries+1) // answer cardinality by QueryID
	var (
		res     Fig5Result
		updates []core.Update
	)
	for i := range s.Steps {
		b := &s.Steps[i]
		b.Report(p)
		start := time.Now()
		updates = p.StepAppend(updates[:0], b.Now)
		ms := msSince(start)
		for _, u := range updates {
			if int(u.Query) < len(size) {
				if u.Positive {
					size[u.Query]++
				} else {
					size[u.Query]--
				}
			}
		}
		if i <= s.Warmup {
			continue
		}
		var tuples int64
		for _, n := range size[1:] {
			tuples += n
		}
		inc := int64(wire.EncodedSize(wire.UpdateBatch{Updates: updates}))
		full := int64(s.Queries)*empty + tuples*perID
		res.StepMillis += ms
		res.Updates += float64(len(updates))
		res.AnswerTuples += float64(tuples)
		res.IncrementalBytes += inc
		res.CompleteBytes += full
		res.IncrementalKB += float64(inc) / 1024
		res.CompleteKB += float64(full) / 1024
	}
	return res.per(len(s.Steps) - 1 - s.Warmup)
}

// RunRecoveryScript replays s through core.Protocol over a processor
// from f once per missed-tick count: it commits query 1 after the
// bootstrap, runs that many periods with the client away, and measures
// both ways to resynchronize it. s must hold at least the largest count
// of periods after its bootstrap.
func RunRecoveryScript(s *Script, f Factory, missedTicksList []int) []RecoveryResult {
	out := make([]RecoveryResult, 0, len(missedTicksList))
	for _, missed := range missedTicksList {
		inner, done := f(s.Opt)
		p := core.NewProtocol(inner)
		s.Steps[0].Report(p)
		p.Step(s.Steps[0].Now)

		const q = core.QueryID(1)
		p.Commit(q)
		for i := 1; i <= missed; i++ {
			s.Steps[i].Report(p)
			p.Step(s.Steps[i].Now)
		}
		diff, _ := p.Recover(q)
		ans, _ := p.Answer(q)
		done()
		out = append(out, RecoveryResult{
			MissedTicks: missed,
			DiffKB:      float64(wire.EncodedSize(wire.RecoveryDiff{Updates: diff})) / 1024,
			FullKB:      float64(wire.EncodedSize(wire.FullAnswer{Query: q, Objects: ans})) / 1024,
			DiffTuples:  len(diff),
			AnswerSize:  len(ans),
		})
	}
	return out
}
