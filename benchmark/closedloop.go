package main

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"cqp/internal/core"
	"cqp/internal/shard"
	"cqp/internal/wire"
)

// paperSpec is the paper's Figure 5 point as internal/bench anchors it:
// 20 000 objects x 20 000 moving range queries of side 0.01, 30 % of
// each reporting per 5 s period.
func paperSpec(quick bool) scriptSpec {
	spec := scriptSpec{
		objects: 20000, ranges: 20000, side: 0.01,
		objPerRnd: 6000, qryPerRnd: 6000, rounds: 40, dt: 5,
	}
	if quick {
		spec.objects, spec.ranges = 1000, 1000
		spec.objPerRnd, spec.qryPerRnd = 300, 300
		spec.rounds = 10
	}
	return spec
}

const (
	closedWarmup = 10 // unmeasured leading steps
	oracleEvery  = 50 // steps between oracle checks
	shardTiles   = 4
	setupRepeats = 3 // set-ups per run; setup_s is their median
)

// defaultOptions is the configuration every workload runs: a later
// change to a default must show up here, so nothing else is set.
func defaultOptions() core.Options { return core.Options{Bounds: bounds, GridN: 64} }

func runEnginePaper(cfg runConfig) (*result, error) { return runClosedLoop(cfg, false) }
func runShardPaper(cfg runConfig) (*result, error)  { return runClosedLoop(cfg, true) }

// closedProcessor is one constructed system under test of the
// closed-loop workloads.
type closedProcessor struct {
	core.Processor
	close func()

	// Set in traced shard runs only.
	stepSpan *atomic.Int64 // span of the router step in flight
	evalNum  *atomic.Int64
}

func newClosedProcessor(sharded bool, tr *tracer) (*closedProcessor, error) {
	opt := defaultOptions()
	if !sharded {
		eng, err := core.NewEngine(opt)
		if err != nil {
			return nil, err
		}
		return &closedProcessor{Processor: eng, close: func() {}}, nil
	}
	if tr == nil {
		eng, err := shard.NewN(opt, shardTiles)
		if err != nil {
			return nil, err
		}
		return &closedProcessor{Processor: eng, close: func() { eng.Close() }}, nil
	}
	p := &closedProcessor{stepSpan: new(atomic.Int64), evalNum: new(atomic.Int64)}
	p.stepSpan.Store(-1)
	var tiles sync.WaitGroup
	rows, cols := shard.Split(shardTiles)
	eng, err := shard.NewWithTiles(shard.Options{Core: opt, Rows: rows, Cols: cols},
		tracedTileFactory(tr, p.stepSpan, p.evalNum, &tiles))
	if err != nil {
		return nil, err
	}
	p.Processor = eng
	p.close = func() {
		eng.Close()
		tiles.Wait()
	}
	return p, nil
}

// runClosedLoop drives one processor with the paper script, one period
// at a time: hand the period's reports in, evaluate, fold the updates.
// Only the calls into the processor are timed.
func runClosedLoop(cfg runConfig, sharded bool) (*result, error) {
	res := newResult(cfg)
	s := buildScript(paperSpec(cfg.quick), cfg.seed)
	tr := tracerFor(cfg)

	// Set-up: construct, register the whole population, evaluate it.
	var (
		p       *closedProcessor
		updates []core.Update
	)
	setups, err := timeSetups(setupRepeats, func() (err error) {
		if p, err = newClosedProcessor(sharded, tr); err != nil {
			return err
		}
		s.bootstrap(p)
		updates = p.StepAppend(updates[:0], 0)
		return nil
	}, func() { p.close() })
	if err != nil {
		return nil, err
	}
	defer func() { p.close() }()

	fold := replay{}
	fold.apply(updates)
	track := newTracker(s)
	qrys := track.population().qrys
	orc := newOracle(defaultOptions())
	check := func() {
		n, bad := orc.check(track.population(), p.Answer)
		res.Attempted += n
		res.Failed += bad + fold.check(qrys, p.AnswerChecksum)
	}
	check()

	step := 0
	period := func() (reportNs, stepNs int64) {
		now := float64(step+1) * s.spec.dt
		id := tr.begin("period", -1, int64(step))
		t0 := time.Now()
		s.playStep(step, now, p)
		t1 := time.Now()
		var stepSpan int
		if sharded {
			stepSpan = tr.begin("shard.step", id, int64(step))
			if p.stepSpan != nil {
				p.stepSpan.Store(int64(stepSpan))
				p.evalNum.Store(int64(step))
			}
		}
		updates = p.StepAppend(updates[:0], now)
		t2 := time.Now()
		if sharded {
			tr.end(stepSpan)
		} else {
			tr.add("core.step", t1, t2, id, int64(step))
		}
		tr.end(id)
		fold.apply(updates)
		track.step(step)
		step++
		return t1.Sub(t0).Nanoseconds(), t2.Sub(t1).Nanoseconds()
	}
	for i := 0; i < closedWarmup; i++ {
		period()
	}
	tr.start()

	// The exact counts are taken over one forward pass of the script,
	// which every run completes whatever its length.
	prefix := len(s.rounds)
	var (
		reportNs, stepNsSum     int64
		reports, reportsTotal   int
		updatesTotal            int
		cold                    bool
		prefixUpdates, prefixKB int
		prefixStepNs            int64
		prefixSums              replay // the fold as it stood at the end of the prefix
		steps, periods          recorder
	)
	begin := time.Now()
	for n := 0; n < prefix || time.Since(begin).Seconds() < cfg.seconds; n++ {
		rep := s.stepReports(step)
		rns, sns := period()
		res.Attempted++
		updatesTotal += len(updates)
		reportsTotal += rep
		// The period after an oracle check runs on the caches and the
		// garbage the oracle left behind; it is evaluated and checked
		// like any other but not timed.
		if !cold {
			reportNs += rns
			stepNsSum += sns
			reports += rep
			steps.add(sns)
			periods.add(rns + sns)
		}
		cold = false
		if n < prefix {
			prefixUpdates += len(updates)
			prefixKB += wire.EncodedSize(wire.UpdateBatch{Updates: updates})
			prefixStepNs += sns
		}
		if n == prefix-1 {
			prefixSums = maps.Clone(fold)
		}
		if (n+1)%oracleEvery == 0 {
			check()
			cold = true
		}
	}
	check()

	res.set("kreports_per_s", float64(reports)/1e3/(float64(reportNs+stepNsSum)/1e9), reports)
	res.setLatency(&periods)
	res.setSetup(setups)
	res.setMemory()

	res.set("gen.script_s", s.genS, 1)
	res.set("core.report_ns", float64(reportNs)/float64(reports), reports)
	res.set("core.updates_total", float64(prefixUpdates), prefix)
	res.set("core.update_kb_per_step", float64(prefixKB)/1024/float64(prefix), prefix)
	res.set("core.updates_per_report", float64(updatesTotal)/float64(reportsTotal), reportsTotal)
	if !sharded {
		res.set("core.step_p50_ms", steps.ms(0.50), steps.count())
		res.set("core.step_p95_ms", steps.ms(0.95), steps.count())
	} else {
		res.set("shard.step_p50_ms", steps.ms(0.50), steps.count())
		// The same prefix through one engine: the update count and every
		// query's answer checksum must equal the sharded run's, and the
		// step-time ratio is the sharding overhead.
		refNs, refUpdates, refBad := referencePrefix(s, prefix, prefixSums)
		res.Attempted += len(prefixSums)
		res.Failed += refBad
		if refUpdates != prefixUpdates {
			res.Failed++
			res.note("shard-paper emitted %d updates over the prefix, engine-paper %d", prefixUpdates, refUpdates)
		}
		res.set("shard.overhead_ratio", float64(prefixStepNs)/float64(refNs), prefix)
	}
	if tr != nil {
		if sharded {
			tileSteps := tr.durations("core.step")
			res.set("core.step_p50_ms", tileSteps.ms(0.50), tileSteps.count())
			res.set("core.step_p95_ms", tileSteps.ms(0.95), tileSteps.count())
			route, merge := shardSelf(tr)
			res.set("shard.route_ns", float64(route.sum())/float64(reportsTotal), route.count())
			res.set("shard.merge_ms", merge.ms(0.50), merge.count())
		}
	}
	res.Correct = res.Failed == 0
	return res, tr.write(cfg)
}

// referencePrefix replays bootstrap, warm-up and the measured prefix
// through one core.Engine and compares every query's answer checksum at
// the end with want. It returns the summed step time over the prefix,
// the updates emitted over it, and the number of differing checksums.
func referencePrefix(s *script, prefix int, want replay) (stepNs int64, updates, mismatched int) {
	eng := core.MustNewEngine(defaultOptions())
	s.bootstrap(eng)
	buf := eng.StepAppend(nil, 0)
	for step := 0; step < closedWarmup+prefix; step++ {
		now := float64(step+1) * s.spec.dt
		s.playStep(step, now, eng)
		start := time.Now()
		buf = eng.StepAppend(buf[:0], now)
		if step >= closedWarmup {
			stepNs += time.Since(start).Nanoseconds()
			updates += len(buf)
		}
	}
	for q, sum := range want {
		if got, ok := eng.AnswerChecksum(q); !ok || got != sum {
			mismatched++
		}
	}
	return stepNs, updates, mismatched
}

// shardSelf splits the router's self time per step into the part before
// the first tile starts (routing) and the part after the last tile ends
// (merge).
func shardSelf(tr *tracer) (route, merge *recorder) {
	route, merge = &recorder{}, &recorder{}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	first := map[int]int64{}
	last := map[int]int64{}
	for _, sp := range tr.spans {
		if sp.Name != "core.step" || sp.Parent < 0 {
			continue
		}
		if v, ok := first[sp.Parent]; !ok || sp.Start < v {
			first[sp.Parent] = sp.Start
		}
		if sp.End > last[sp.Parent] {
			last[sp.Parent] = sp.End
		}
	}
	for i, sp := range tr.spans {
		if sp.Name != "shard.step" {
			continue
		}
		if f, ok := first[i]; ok {
			route.add(f - sp.Start)
			merge.add(sp.End - last[i])
		}
	}
	return route, merge
}
