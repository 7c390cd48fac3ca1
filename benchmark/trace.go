package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cqp/internal/core"
	"cqp/internal/shard"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the index of the span
// that caused this one (-1 for a root); spans of one bulk evaluation
// share Trace, the evaluation number.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Trace  int64  `json:"trace"`
}

// tracer records spans in memory from the benchmark's own wrappers
// around the calls into each layer; nothing inside the program is
// instrumented. A nil *tracer records nothing, which is the untraced
// run.
type tracer struct {
	epoch time.Time
	// on gates recording, so set-up and warm-up leave no spans.
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// tracerFor returns a tracer for a traced run and nil for an untraced one.
func tracerFor(cfg runConfig) *tracer {
	if !cfg.traced {
		return nil
	}
	return newTracer()
}

// start begins recording; set-up and warm-up come before it.
func (t *tracer) start() {
	if t != nil {
		t.on.Store(true)
	}
}

func (t *tracer) at(when time.Time) int64 { return when.Sub(t.epoch).Nanoseconds() }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, trace int64) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Trace: trace})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose ends were stamped by the caller.
func (t *tracer) add(name string, start, end time.Time, parent int, trace int64) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.at(start), End: t.at(end), Parent: parent, Trace: trace})
	return len(t.spans) - 1
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover (children may
// overlap one another, as parallel tiles do).
func (t *tracer) selfTimes() map[string]*recorder {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*recorder)
	for i, s := range spans {
		rec := out[s.Name]
		if rec == nil {
			rec = &recorder{}
			out[s.Name] = rec
		}
		rec.add(s.End - s.Start - covered(children[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total int64
	edge := lo
	for _, v := range iv {
		s, e := max(v[0], edge), min(v[1], hi)
		if e > s {
			total += e - s
			edge = e
		}
	}
	return total
}

// durations returns the raw durations of every span called name.
func (t *tracer) durations(name string) *recorder {
	rec := &recorder{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			rec.add(s.End - s.Start)
		}
	}
	return rec
}

// write stores the spans as JSON in the run's <workload>.trace.json.
func (t *tracer) write(cfg runConfig) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// tracedProcessor decorates a core.Processor with timing of the three
// calls a report's life passes through. It is injected through
// server.Config.Processor in the TCP workloads and called directly in
// the closed-loop ones. Like any Processor it is driven under its
// caller's serialization; only parent is shared with the goroutine that
// opens evaluation spans.
type tracedProcessor struct {
	core.Processor
	tr *tracer

	// parent is the span under which the next StepAppend is recorded
	// (the enclosing evaluation), set by whoever opened it.
	parent atomic.Int64
	// evals numbers the bulk evaluations; it is the trace id.
	evals atomic.Int64

	// Written under the caller's serialization, read by the benchmark
	// while the server still ticks.
	reportNs atomic.Int64 // summed time inside ReportObject/ReportQuery
	reports  atomic.Int64
	updates  atomic.Int64

	// onObject, when set, sees every object report as the processor
	// receives it, with the number of the evaluation that will consume
	// it (probe bookkeeping).
	onObject func(id core.ObjectID, eval int64, at time.Time)
	// onStep, when set, sees every evaluation's span ends and updates.
	onStep func(eval int64, begin, end time.Time, updates []core.Update)
}

func newTracedProcessor(p core.Processor, tr *tracer) *tracedProcessor {
	tp := &tracedProcessor{Processor: p, tr: tr}
	tp.parent.Store(-1)
	return tp
}

func (p *tracedProcessor) ReportObject(u core.ObjectUpdate) {
	start := time.Now()
	p.Processor.ReportObject(u)
	p.reportNs.Add(time.Since(start).Nanoseconds())
	p.reports.Add(1)
	if p.onObject != nil {
		p.onObject(u.ID, p.evals.Load(), start)
	}
}

func (p *tracedProcessor) ReportQuery(u core.QueryUpdate) {
	start := time.Now()
	p.Processor.ReportQuery(u)
	p.reportNs.Add(time.Since(start).Nanoseconds())
	p.reports.Add(1)
}

func (p *tracedProcessor) Step(now float64) []core.Update { return p.StepAppend(nil, now) }

func (p *tracedProcessor) StepAppend(dst []core.Update, now float64) []core.Update {
	base := len(dst)
	eval := p.evals.Load()
	begin := time.Now()
	dst = p.Processor.StepAppend(dst, now)
	end := time.Now()
	p.evals.Add(1)
	p.updates.Add(int64(len(dst) - base))
	p.tr.add("core.step", begin, end, int(p.parent.Load()), eval)
	if p.onStep != nil {
		p.onStep(eval, begin, end, dst[base:])
	}
	return dst
}

// Close releases the wrapped processor's resources, as the server does
// for a processor it owns.
func (p *tracedProcessor) Close() error {
	if c, ok := p.Processor.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}

// tracedTile is the in-process shard tile with its engine step recorded
// as a core.step span under the router's step: a core.Engine on its own
// worker goroutine, handed each evaluation over a channel, exactly as
// the router's default tile runs one. It exists because the router
// routes inside StepAppend, so its self time is only visible from
// outside as the step minus what the tiles cover.
type tracedTile struct {
	eng    *core.Engine
	cmd    chan float64
	res    chan []core.Update
	buf    []core.Update
	lastNs int64

	tr     *tracer
	parent *atomic.Int64 // the router step's span
	eval   *atomic.Int64
}

// tracedTileFactory builds shard tiles that record their steps in tr.
func tracedTileFactory(tr *tracer, parent, eval *atomic.Int64, done *sync.WaitGroup) shard.TileFactory {
	return func(_ int, opt core.Options) (shard.Tile, error) {
		eng, err := core.NewEngine(opt)
		if err != nil {
			return nil, err
		}
		w := &tracedTile{
			eng: eng, cmd: make(chan float64), res: make(chan []core.Update, 1),
			tr: tr, parent: parent, eval: eval,
		}
		done.Add(1)
		go func() {
			defer done.Done()
			w.run()
		}()
		return w, nil
	}
}

// run evaluates until Close closes cmd.
func (w *tracedTile) run() {
	for now := range w.cmd {
		begin := time.Now()
		w.buf = w.eng.StepAppend(w.buf[:0], now)
		end := time.Now()
		w.lastNs = end.Sub(begin).Nanoseconds()
		w.tr.add("core.step", begin, end, int(w.parent.Load()), w.eval.Load())
		w.res <- w.buf
	}
}

func (w *tracedTile) ReportObject(u core.ObjectUpdate) { w.eng.ReportObject(u) }
func (w *tracedTile) ReportQuery(u core.QueryUpdate)   { w.eng.ReportQuery(u) }
func (w *tracedTile) Pending() int                     { return w.eng.Pending() }
func (w *tracedTile) StepBegin(now float64)            { w.cmd <- now }
func (w *tracedTile) StepWait() []core.Update          { return <-w.res }
func (w *tracedTile) StepNanos() int64                 { return w.lastNs }
func (w *tracedTile) WorkStats() core.Stats            { return w.eng.Stats() }
func (w *tracedTile) Close() error {
	close(w.cmd)
	return nil
}
