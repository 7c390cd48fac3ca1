package main

import (
	"fmt"
	"sync"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/geo"
)

// serveSpec is the serving workload's population and offered load: a
// mixed range/kNN query set over mostly moving objects, reporting at a
// fixed rate per evaluation interval.
func serveSpec(quick bool) scriptSpec {
	spec := scriptSpec{
		objects: 31500, stationary: 3500, ranges: 12600, knns: 1400, k: 8, side: 0.02,
		objPerRnd: 2100, qryPerRnd: 840, rounds: 40, dt: 5,
	}
	if quick {
		spec.objects, spec.stationary, spec.ranges, spec.knns = 2250, 250, 900, 100
		spec.objPerRnd, spec.qryPerRnd, spec.rounds = 150, 60, 10
	}
	return spec
}

const (
	serveInterval   = 100 * time.Millisecond // Δt: one script round is due per interval
	probeQueries    = 64
	probesPerQuery  = 4
	serveProbeGap   = 2500 * time.Microsecond // 400 probes/s
	senderWake      = time.Millisecond        // senders wake this often and send what is due
	serveStartDelay = 20 * time.Millisecond   // first report due this long after the senders start
)

// serveRun is one constructed serve-bulk system: the harness plus the
// connection that reports objects.
type serveRun struct {
	h    *harness
	objc *client.Client
}

func (r *serveRun) close() {
	if r.objc != nil {
		r.objc.Close()
	}
	r.h.close()
}

// startServe sets the system up: server, subscriber with every query,
// object connection with every object, and the bootstrap evaluation
// delivered.
func startServe(cfg runConfig, tr *tracer, s *script, probes *probeSet) (*serveRun, error) {
	r := &serveRun{}
	h, err := startHarness(cfg, tr, s, probes, serveInterval, "", func(h *harness) error {
		var err error
		if r.objc, err = client.Dial(h.srv.Addr().String()); err != nil {
			return err
		}
		h.watch(r.objc)
		for i, p := range s.objs0 {
			if err := r.objc.ReportObject(s.objectUpdate(i, p, 0)); err != nil {
				return fmt.Errorf("register object: %w", err)
			}
		}
		for i := 0; i < probes.numObjects(); i++ {
			if err := r.objc.ReportObject(probes.objectUpdate(i, false, 0)); err != nil {
				return fmt.Errorf("register probe object: %w", err)
			}
		}
		return h.flush(r.objc)
	})
	if err != nil {
		if r.objc != nil {
			r.objc.Close()
		}
		return nil, err
	}
	r.h = h
	if err := h.sentinel(r.objc.ReportObject); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// sender is one open-loop sending goroutine's tallies.
type sender struct {
	lag    recorder // due → the sending call
	sendNs recorder // inside the sending call: blocked by back-pressure
	sent   int
	err    error
}

func runServeBulk(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	s := buildScript(serveSpec(cfg.quick), cfg.seed)
	probes := newProbeSet(cfg.seed, probeQueries, probesPerQuery)
	tr := tracerFor(cfg)

	var run *serveRun
	setups, err := timeSetups(setupRepeats, func() (err error) {
		run, err = startServe(cfg, tr, s, probes)
		return err
	}, func() { run.close() })
	if err != nil {
		return nil, err
	}
	defer func() { run.close() }()
	h := run.h

	tr.start()
	track := newTracker(s)
	from := h.book.mark()
	start := time.Now().Add(serveStartDelay)
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	objs, qrys := &sender{}, &sender{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		sendObjects(objs, run, s, track, start, deadline)
	}()
	go func() {
		defer wg.Done()
		sendQueries(qrys, h, s, track, start, deadline)
	}()
	wg.Wait()
	if objs.err != nil || qrys.err != nil {
		return nil, fmt.Errorf("send: %v / %v", objs.err, qrys.err)
	}
	to := h.book.mark()
	// Quiesce: the subscriber's moves are handled once its stats reply
	// returns, and the sentinel sent after that is answered by an
	// evaluation that saw everything.
	if err := h.flush(h.sub); err != nil {
		return nil, err
	}
	if err := h.sentinel(run.objc.ReportObject); err != nil {
		return nil, err
	}
	end := time.Now()

	total := objs.sent + qrys.sent + h.conclude(res, from, to, track.population())
	res.set("kreports_per_s", float64(total)/1e3/end.Sub(start).Seconds(), total)
	res.setSetup(setups)
	res.setMemory()

	res.set("gen.script_s", s.genS, 1)
	objs.lag.merge(&qrys.lag)
	res.set("gen.sched_lag_p99_ms", objs.lag.ms(0.99), objs.lag.count())
	objs.sendNs.merge(&qrys.sendNs)
	res.set("client.send_ns", objs.sendNs.meanNs(), objs.sendNs.count())
	return res, tr.write(cfg)
}

// pace blocks until due, waking every senderWake; each wake first gives
// idle a chance to send what else has come due. It returns the time it
// observed, which is at or after due.
func pace(due time.Time, idle func(now time.Time)) time.Time {
	for {
		now := time.Now()
		if idle != nil {
			idle(now)
		}
		if !now.Before(due) {
			return now
		}
		time.Sleep(senderWake)
	}
}

// prober issues probe reports on an open-loop schedule: probe k is due
// at start + k*gap, cycles through the measured probe objects, and is
// stamped from its due time.
type prober struct {
	h        *harness
	send     func(core.ObjectUpdate) error
	start    time.Time
	deadline time.Time
	gap      time.Duration
	next     int
	err      error
}

// sendDue sends every probe that has come due by now.
func (p *prober) sendDue(now time.Time) {
	measured := p.h.book.set.numObjects() - 1 // the last probe object is the sentinel's
	for p.err == nil {
		due := p.start.Add(time.Duration(p.next) * p.gap)
		if due.After(now) || !due.Before(p.deadline) {
			return
		}
		u, seq := p.h.book.next(p.next%measured, due)
		call := time.Now()
		p.err = p.send(u)
		p.h.book.stampSend(seq, call, time.Now())
		p.next++
	}
}

// sendObjects plays the script's object reports on the open-loop
// schedule — round n's reports spread evenly over interval n — with a
// probe report interleaved every serveProbeGap.
func sendObjects(st *sender, run *serveRun, s *script, track *tracker, start, deadline time.Time) {
	probes := &prober{h: run.h, send: run.objc.ReportObject, start: start, deadline: deadline, gap: serveProbeGap}
	for step := 0; st.err == nil; step++ {
		base := start.Add(time.Duration(step) * serveInterval)
		if !base.Before(deadline) {
			return
		}
		rd, _ := s.step(step)
		gap := serveInterval / time.Duration(len(rd.objs))
		k := 0
		s.forStep(step, func(isQuery bool, idx int, p geo.Point) {
			if isQuery || st.err != nil {
				return
			}
			due := base.Add(time.Duration(k) * gap)
			k++
			if !due.Before(deadline) {
				return
			}
			call := pace(due, probes.sendDue)
			if st.err = probes.err; st.err != nil {
				return
			}
			st.err = run.objc.ReportObject(s.objectUpdate(idx, p, 0))
			st.lag.add(call.Sub(due).Nanoseconds())
			st.sendNs.add(time.Since(call).Nanoseconds())
			st.sent++
			track.objs[idx] = p
		})
	}
}

// sendQueries plays the script's query moves on the same schedule over
// the subscriber's connection.
func sendQueries(st *sender, h *harness, s *script, track *tracker, start, deadline time.Time) {
	for step := 0; st.err == nil; step++ {
		base := start.Add(time.Duration(step) * serveInterval)
		if !base.Before(deadline) {
			return
		}
		rd, _ := s.step(step)
		gap := serveInterval / time.Duration(len(rd.qrys))
		k := 0
		s.forStep(step, func(isQuery bool, idx int, p geo.Point) {
			if !isQuery || st.err != nil {
				return
			}
			due := base.Add(time.Duration(k) * gap)
			k++
			if !due.Before(deadline) {
				return
			}
			call := pace(due, nil)
			st.err = h.sub.RegisterQuery(s.queryUpdate(idx, p, 0))
			st.lag.add(call.Sub(due).Nanoseconds())
			st.sendNs.add(time.Since(call).Nanoseconds())
			st.sent++
			track.qrys[idx] = p
		})
	}
}
