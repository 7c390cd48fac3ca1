package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/server"
)

// quiesceTimeout bounds every wait for the server to catch up.
const quiesceTimeout = 60 * time.Second

// probeRec is one probe report's life, stamped from outside.
type probeRec struct {
	obj      int
	positive bool // the sign of the update it must cause
	due      time.Time
	call     time.Time // handed to the sending call
	sent     time.Time // the sending call returned
	applied  time.Time // its update was folded into the subscriber's answer
	eval     int64     // traced: the evaluation that consumed it
}

// probeBook keeps the probes of one run. The sender goroutine issues
// probes, the subscriber's read loop stamps their arrival, and (traced)
// the server's session goroutine notes the consuming evaluation, so
// everything is under one mutex; the rates involved are a few hundred
// per second.
type probeBook struct {
	set *probeSet

	mu      sync.Mutex
	inside  []bool // per probe object: where its last report put it
	pending []int  // per probe object: index of its outstanding probe, or -1
	recs    []probeRec
}

func newProbeBook(set *probeSet) *probeBook {
	b := &probeBook{set: set, inside: make([]bool, set.numObjects()), pending: make([]int, set.numObjects())}
	for i := range b.pending {
		b.pending[i] = -1
	}
	return b
}

// next toggles probe object obj and returns the report to send and the
// probe's index. A predecessor still unanswered stays so: its update did
// not arrive before the object's next toggle, which is a failure.
func (b *probeBook) next(obj int, due time.Time) (core.ObjectUpdate, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.inside[obj] = !b.inside[obj]
	b.recs = append(b.recs, probeRec{obj: obj, positive: b.inside[obj], due: due, eval: -1})
	seq := len(b.recs) - 1
	b.pending[obj] = seq
	return b.set.objectUpdate(obj, b.inside[obj], 0), seq
}

func (b *probeBook) stampSend(seq int, call, sent time.Time) {
	b.mu.Lock()
	b.recs[seq].call, b.recs[seq].sent = call, sent
	b.mu.Unlock()
}

// onApplied stamps every probe whose update is in the batch.
func (b *probeBook) onApplied(updates []core.Update, now time.Time) {
	locked := false
	for _, u := range updates {
		if u.Query < probeQueryBase || u.Object < probeObjectBase {
			continue
		}
		obj := int(u.Object - probeObjectBase)
		if obj >= len(b.pending) || int(u.Query-probeQueryBase) != b.set.queryOf(obj) {
			continue
		}
		if !locked {
			b.mu.Lock()
			locked = true
		}
		if p := b.pending[obj]; p >= 0 && b.recs[p].positive == u.Positive {
			b.recs[p].applied = now
			b.pending[obj] = -1
		}
	}
	if locked {
		b.mu.Unlock()
	}
}

// onObject notes which evaluation will consume a probe report (traced).
func (b *probeBook) onObject(id core.ObjectID, eval int64, _ time.Time) {
	if id < probeObjectBase {
		return
	}
	obj := int(id - probeObjectBase)
	b.mu.Lock()
	if obj < len(b.pending) && b.pending[obj] >= 0 {
		b.recs[b.pending[obj]].eval = eval
	}
	b.mu.Unlock()
}

func (b *probeBook) isApplied(seq int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.recs[seq].applied.IsZero()
}

// await polls until probe seq is answered.
func (b *probeBook) await(seq int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !b.isApplied(seq) {
		if time.Now().After(deadline) {
			return fmt.Errorf("probe %d unanswered after %v", seq, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// mark returns the number of probes issued so far.
func (b *probeBook) mark() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recs)
}

// window returns copies of the probes issued in [from, to), and how many
// went unanswered (late at their next toggle, or never answered at all).
func (b *probeBook) window(from, to int) (recs []probeRec, failed int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	recs = append(recs, b.recs[from:to]...)
	for _, r := range recs {
		if r.applied.IsZero() {
			failed++
		}
	}
	return recs, failed
}

// evalTimes are one bulk evaluation's stamps in a traced run.
type evalTimes struct {
	span               int // the server.evaluate span
	evalBegin, evalEnd time.Time
	stepBegin, stepEnd time.Time
	emitted            bool // the step produced updates, so one batch went out
}

// harness is one running server with its subscriber session: what the
// three TCP workloads share. The subscriber owns every query and so
// receives every update; objects reach the server over the workload's
// own connection.
type harness struct {
	tr    *tracer
	srv   *server.Server
	sub   *client.Client
	book  *probeBook
	stop  chan struct{}
	stats chan struct{} // a stats reply reached the subscriber
	bg    sync.WaitGroup

	disconnects atomic.Int64 // sessions lost: shed, reset, reconnected
	fullAnswers atomic.Int64 // answers healed by a complete resend

	// Traced runs only.
	tp      *tracedProcessor
	reg     *obs.Registry
	lis     *tracedListener
	subConn *tracedConn

	mu      sync.Mutex
	evals   map[int64]*evalTimes
	applied []time.Time // entry time of the k-th OnApplied call
}

// startHarness constructs the server in the workload's configuration —
// the defaults, except what the workload is about — lets feed register
// the objects over the workload's own connection, then connects the
// subscriber and registers every scripted and probe query. Objects come
// first and are fully handled before the first query arrives, so the
// bootstrap does the same work however the two connections interleave.
func startHarness(cfg runConfig, tr *tracer, s *script, probes *probeSet, interval time.Duration, repoDir string, feed func(*harness) error) (*harness, error) {
	h := &harness{tr: tr, book: newProbeBook(probes), stop: make(chan struct{}), stats: make(chan struct{}, 1)}
	conf := server.Config{Engine: defaultOptions(), Interval: interval, RepositoryDir: repoDir}
	if cfg.wrap != nil || tr != nil {
		var p core.Processor = core.MustNewEngine(conf.Engine)
		if cfg.wrap != nil {
			p = cfg.wrap(p)
		}
		if tr != nil {
			h.tp = newTracedProcessor(p, tr)
			h.tp.onObject = h.book.onObject
			h.tp.onStep = h.onStep
			h.evals = make(map[int64]*evalTimes)
			p = h.tp
		}
		conf.Processor = p
	}
	if tr != nil {
		// The benchmark's own ticker drives Evaluate so each evaluation
		// has a span; the registry adds the server's existing counters.
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		h.lis = newTracedListener(l)
		h.reg = obs.NewRegistry()
		conf.Listener, conf.Metrics, conf.Interval = h.lis, h.reg, 0
	}
	srv, err := server.Listen("127.0.0.1:0", conf)
	if err != nil {
		if h.lis != nil {
			h.lis.Close()
		}
		return nil, err
	}
	h.srv = srv
	if tr != nil {
		h.bg.Add(1)
		go h.tick(interval)
	}

	if err := feed(h); err != nil {
		h.close()
		return nil, err
	}

	opts := client.Options{OnApplied: h.onApplied}
	if tr != nil {
		opts.Dialer = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			h.subConn = newTracedConn(c)
			return h.subConn, nil
		}
	}
	h.sub, err = client.DialOptions(srv.Addr().String(), opts)
	if err != nil {
		h.close()
		return nil, err
	}
	h.watch(h.sub)
	for j, p := range s.qrys0 {
		if err := h.sub.RegisterQuery(s.queryUpdate(j, p, 0)); err != nil {
			h.close()
			return nil, fmt.Errorf("register query: %w", err)
		}
	}
	for j := 0; j < probes.numQueries(); j++ {
		if err := h.sub.RegisterQuery(probes.queryUpdate(j)); err != nil {
			h.close()
			return nil, fmt.Errorf("register probe query: %w", err)
		}
	}
	return h, nil
}

// watch drains a client's events until Close closes the channel,
// counting the ones that mean a session or an answer was lost.
func (h *harness) watch(c *client.Client) {
	h.bg.Add(1)
	go func() {
		defer h.bg.Done()
		for ev := range c.Events() {
			switch ev.Kind {
			case client.EventDisconnected, client.EventReconnectFailed, client.EventRecovered:
				h.disconnects.Add(1)
			case client.EventFullAnswer:
				h.fullAnswers.Add(1)
			case client.EventStats:
				select {
				case h.stats <- struct{}{}:
				default:
				}
			}
		}
	}()
}

// tick is the traced run's evaluation ticker: Server.Evaluate every
// interval, each call a server.evaluate span under which the traced
// processor records core.step.
func (h *harness) tick(interval time.Duration) {
	defer h.bg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-t.C:
			eval := h.tp.evals.Load()
			id := h.tr.begin("server.evaluate", -1, eval)
			h.tp.parent.Store(int64(id))
			begin := time.Now()
			h.srv.Evaluate()
			end := time.Now()
			h.tr.end(id)
			h.mu.Lock()
			et := h.evalOf(eval)
			et.span, et.evalBegin, et.evalEnd = id, begin, end
			h.mu.Unlock()
		}
	}
}

// evalOf returns the stamps of evaluation n; the caller holds h.mu.
func (h *harness) evalOf(n int64) *evalTimes {
	et := h.evals[n]
	if et == nil {
		et = &evalTimes{span: -1}
		h.evals[n] = et
	}
	return et
}

func (h *harness) onStep(eval int64, begin, end time.Time, updates []core.Update) {
	h.mu.Lock()
	et := h.evalOf(eval)
	et.stepBegin, et.stepEnd, et.emitted = begin, end, len(updates) > 0
	h.mu.Unlock()
}

// onApplied runs in the subscriber's read loop after a batch has been
// folded into its answers.
func (h *harness) onApplied(updates []core.Update) {
	now := time.Now()
	if h.tr != nil {
		h.mu.Lock()
		h.applied = append(h.applied, now)
		h.mu.Unlock()
	}
	h.book.onApplied(updates, now)
}

// sentinel toggles the last probe object, which no measured probe uses,
// through send and waits for its update: everything handed in before it
// on the same connection has then been evaluated and delivered.
func (h *harness) sentinel(send func(core.ObjectUpdate) error) error {
	now := time.Now()
	u, seq := h.book.next(h.book.set.numObjects()-1, now)
	if err := send(u); err != nil {
		return err
	}
	h.book.stampSend(seq, now, time.Now())
	return h.book.await(seq, quiesceTimeout)
}

// flush returns once the server has handled everything c sent: the
// stats reply queues behind it on the session.
func (h *harness) flush(c *client.Client) error {
	if err := c.RequestStats(); err != nil {
		return err
	}
	select {
	case <-h.stats:
		return nil
	case <-time.After(quiesceTimeout):
		return errors.New("no stats reply from the server")
	}
}

// conclude scores the window: the delivery latency of the probes issued
// in [from, to), the final answers against the oracle evaluating pop
// (to which the probe population is added), and the sessions lost on the
// way. A traced run also gets its layer metrics, prints its latency
// budget and fails when the budget's segments do not add up.
func (h *harness) conclude(res *result, from, to int, pop population) (probes int) {
	recs, unanswered := h.book.window(from, to)
	var delivery recorder
	for _, r := range recs {
		if !r.applied.IsZero() {
			delivery.add(r.applied.Sub(r.due).Nanoseconds())
		}
	}
	res.setLatency(&delivery)
	h.book.appendTo(&pop)
	compared, mismatched := newOracle(defaultOptions()).check(pop, h.sub.Answer)
	lost := int(h.disconnects.Load() + h.fullAnswers.Load())
	res.Attempted = len(recs) + compared + 2
	res.Failed = unanswered + mismatched + lost
	res.Correct = mismatched == 0
	if unanswered+lost > 0 {
		res.note("%d probes unanswered, %d sessions lost or answers healed", unanswered, lost)
	}
	if h.tr == nil {
		return len(recs)
	}
	if budget := h.layerMetrics(res, recs); budget != nil {
		budget.print()
		if budget.worst > 0.01 {
			res.Failed++
			res.note("latency budget off by %.2f%% of a probe's delivery latency", 100*budget.worst)
		}
	}
	return len(recs)
}

// appendTo adds the probe objects, where their last reports put them,
// and the probe queries to a population.
func (b *probeBook) appendTo(pop *population) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, in := range b.inside {
		pop.objs = append(pop.objs, b.set.objectUpdate(i, in, 0))
	}
	for j := 0; j < b.set.numQueries(); j++ {
		pop.qrys = append(pop.qrys, b.set.queryUpdate(j))
	}
}

// close tears everything down and waits for every goroutine.
func (h *harness) close() error {
	close(h.stop)
	var err error
	if h.sub != nil {
		err = h.sub.Close()
	}
	if h.srv != nil {
		err = errors.Join(err, h.srv.Close())
	}
	h.bg.Wait()
	return err
}
