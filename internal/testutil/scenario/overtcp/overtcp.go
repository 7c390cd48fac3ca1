// Package overtcp is the scenario driver's networked target: a live
// internal/server on loopback and internal/client sessions, played in
// lockstep with the driver's reference engine, so the paper's
// out-of-sync protocol is checked end to end over real sockets.
//
// Object o reports through feed session o mod N, so each object's
// reports stay ordered on one connection. Query q reports through a
// session of its own, the only one that receives q's updates: Recover
// drops and reconnects that session, and a reconnect recovers every
// query its session holds, so q alone recovers, as Protocol.Recover(q)
// does.
//
// A step has three parts. A barrier: each session that sent reports
// asks the server for its stats, and the server answers only after it
// has handled every earlier frame of that session. Then
// Server.Evaluate. Then a wait until the sessions have received as many
// updates as the server streamed. The step's stream is the sessions'
// batches as the clients received them, stably sorted by query: each
// query's updates come from one session, in canonical order, so the
// sort gives back the canonical order. A session that receives an
// update of a query it does not own fails the test.
package overtcp

import (
	"cmp"
	"io"
	"log"
	"slices"
	"sync"
	"testing"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/server"
	"cqp/internal/testutil/scenario"
)

// timeout bounds every wait on the server or a client.
const timeout = 10 * time.Second

// Target is a server and its client sessions as a scenario.Target. A
// protocol failure the driver cannot see — a commit the server heals
// instead of acknowledging, a recovery that falls back to a full
// answer — fails the test. Its methods must be called from the test's
// goroutine.
type Target struct {
	t        testing.TB
	srv      *server.Server
	streamed *obs.Counter  // the server's server.updates.streamed
	creg     *obs.Registry // every client's metrics
	feeds    []*session
	qs       map[core.QueryID]*session
	all      []*session    // in dial order
	wake     chan struct{} // a session received an event
}

// session is one client connection and the events it has received.
type session struct {
	c    *client.Client
	q    core.QueryID  // the query it owns; 0 for a feed
	done chan struct{} // closed when the event pump exits

	mu   sync.Mutex
	upds []core.Update  // updates not yet taken by a step
	n    uint64         // updates received
	ctl  []client.Event // other events, not yet awaited

	objs []core.ObjectUpdate // reports not yet sent
	qrys []core.QueryUpdate
}

// New starts a server on loopback with cfg, its engine options set to
// src's, a registry of its own unless cfg has one, and no logging
// unless cfg has a logger; dials feeds object sessions; and closes all
// of it when t ends.
func New(t testing.TB, src scenario.Source, cfg server.Config, feeds int) *Target {
	t.Helper()
	cfg.Engine = src.Options()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	srv, err := server.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tg := &Target{
		t:        t,
		srv:      srv,
		streamed: cfg.Metrics.Counter("server.updates.streamed"),
		creg:     obs.NewRegistry(),
		qs:       map[core.QueryID]*session{},
		wake:     make(chan struct{}, 1),
	}
	t.Cleanup(tg.close)
	for range feeds {
		tg.feeds = append(tg.feeds, tg.dial(0))
	}
	return tg
}

// ClientMetrics returns the registry every session's client counts in.
func (tg *Target) ClientMetrics() *obs.Registry { return tg.creg }

// Sessions returns the number of sessions dialed.
func (tg *Target) Sessions() int { return len(tg.all) }

func (tg *Target) dial(q core.QueryID) *session {
	c, err := client.DialOptions(tg.srv.Addr().String(), client.Options{Metrics: tg.creg})
	if err != nil {
		tg.t.Fatal(err)
	}
	s := &session{c: c, q: q, done: make(chan struct{})}
	go tg.pump(s)
	tg.all = append(tg.all, s)
	return s
}

// pump files s's events until its client closes them.
func (tg *Target) pump(s *session) {
	defer close(s.done)
	for ev := range s.c.Events() {
		s.mu.Lock()
		if ev.Kind == client.EventUpdates {
			s.upds = append(s.upds, ev.Updates...)
			s.n += uint64(len(ev.Updates))
		} else {
			s.ctl = append(s.ctl, ev)
		}
		s.mu.Unlock()
		select {
		case tg.wake <- struct{}{}:
		default:
		}
	}
}

func (tg *Target) close() {
	for _, s := range tg.all {
		s.c.Close()
		<-s.done
	}
	tg.srv.Close()
}

// wait blocks until cond holds, and fails the test after timeout.
func (tg *Target) wait(what string, cond func() bool) {
	tg.t.Helper()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for !cond() {
		select {
		case <-tg.wake:
		case <-deadline.C:
			tg.t.Fatalf("overtcp: timed out waiting for %s", what)
		}
	}
}

// await returns s's next event other than updates, and fails the test
// unless it is of the wanted kind.
func (tg *Target) await(s *session, want client.EventKind) client.Event {
	tg.t.Helper()
	var ev client.Event
	tg.wait("a session event", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.ctl) == 0 {
			return false
		}
		ev, s.ctl = s.ctl[0], s.ctl[1:]
		return true
	})
	if ev.Kind != want {
		tg.t.Fatalf("overtcp: session of query %d: event %+v, want kind %d (kind %d is a full-answer heal)", s.q, ev, want, client.EventFullAnswer)
	}
	return ev
}

// ReportObject queues u on its feed session.
func (tg *Target) ReportObject(u core.ObjectUpdate) {
	s := tg.feeds[int(u.ID)%len(tg.feeds)]
	s.objs = append(s.objs, u)
}

// ReportQuery queues u on its query's session, dialed on first use.
func (tg *Target) ReportQuery(u core.QueryUpdate) {
	s := tg.qs[u.ID]
	if s == nil {
		s = tg.dial(u.ID)
		tg.qs[u.ID] = s
	}
	s.qrys = append(s.qrys, u)
}

// Step sends every session's queued reports, each session on its own
// goroutine, then steps the server and returns the stream the clients
// received.
func (tg *Target) Step(float64) []core.Update {
	tg.t.Helper()
	var sent []*session
	for _, s := range tg.all {
		if len(s.objs)+len(s.qrys) > 0 {
			sent = append(sent, s)
		}
	}
	errs := make([]error, len(sent))
	var wg sync.WaitGroup
	for i, s := range sent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.send()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			tg.t.Fatal(err)
		}
	}
	for _, s := range sent {
		if err := s.c.RequestStats(); err != nil {
			tg.t.Fatal(err)
		}
	}
	for _, s := range sent {
		tg.await(s, client.EventStats)
	}
	tg.srv.Evaluate()
	streamed := tg.streamed.Value()
	tg.wait("the streamed updates", func() bool {
		var n uint64
		for _, s := range tg.all {
			s.mu.Lock()
			n += s.n
			s.mu.Unlock()
		}
		return n == streamed
	})
	var out []core.Update
	for _, s := range tg.all {
		s.mu.Lock()
		upds := s.upds
		s.upds = nil
		s.mu.Unlock()
		for _, u := range upds {
			if u.Query != s.q {
				tg.t.Fatalf("overtcp: session of query %d received %v", s.q, u)
			}
		}
		out = append(out, upds...)
	}
	slices.SortStableFunc(out, func(a, b core.Update) int { return cmp.Compare(a.Query, b.Query) })
	return out
}

// send writes s's queued reports in order.
func (s *session) send() error {
	for _, u := range s.objs {
		if err := s.c.ReportObject(u); err != nil {
			return err
		}
	}
	for _, u := range s.qrys {
		if err := s.c.RegisterQuery(u); err != nil {
			return err
		}
	}
	s.objs, s.qrys = s.objs[:0], s.qrys[:0]
	return nil
}

// Answer returns q's answer as its client holds it.
func (tg *Target) Answer(q core.QueryID) ([]core.ObjectID, bool) {
	if s := tg.qs[q]; s != nil {
		return s.c.Answer(q)
	}
	return nil, false
}

// NumObjects returns the server's object count.
func (tg *Target) NumObjects() int { return tg.srv.NumObjects() }

// NumQueries returns the server's query count.
func (tg *Target) NumQueries() int { return tg.srv.NumQueries() }

// Stats returns the server's work ledger.
func (tg *Target) Stats() core.Stats { return tg.srv.Stats() }

// Commit commits q through its client; the server must acknowledge it.
func (tg *Target) Commit(q core.QueryID) bool {
	tg.t.Helper()
	if _, ok := tg.Answer(q); !ok {
		return false
	}
	s := tg.qs[q]
	if err := s.c.Commit(q); err != nil {
		tg.t.Fatal(err)
	}
	tg.await(s, client.EventCommitted)
	return true
}

// Recover drops q's session and reconnects it; the server must answer
// the wakeup with the incremental diff, which Recover returns.
func (tg *Target) Recover(q core.QueryID) ([]core.Update, bool) {
	tg.t.Helper()
	if _, ok := tg.Answer(q); !ok {
		return nil, false
	}
	s := tg.qs[q]
	if err := s.c.Drop(); err != nil {
		tg.t.Fatal(err)
	}
	tg.await(s, client.EventDisconnected)
	if err := s.c.Reconnect(tg.srv.Addr().String()); err != nil {
		tg.t.Fatal(err)
	}
	return tg.await(s, client.EventRecovered).Updates, true
}
