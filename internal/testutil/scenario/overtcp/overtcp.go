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
//
// Restart closes the server and opens a new one on the same
// configuration, RepositoryDir included. The objects re-send their
// last accepted reports, as live clients would; with a repository,
// stationary objects do not, since the server restores its catalog.
// The new server evaluates them, and then every session reconnects.
// Each session that holds its query must receive one recovery for it
// and no update batch before it: the incremental diff exactly when the
// client's commit snapshot equals the query's last durable commit (an
// acknowledged Commit, a recovery or a full answer, kept only with a
// repository, erased by a removal), and the whole answer otherwise.
// Restart needs a server without a ticker (Interval 0).
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
	cfg      server.Config // what Restart opens the next server with
	srv      *server.Server
	streamed *obs.Counter  // the server's server.updates.streamed
	creg     *obs.Registry // every client's metrics
	feeds    []*session
	qs       map[core.QueryID]*session
	all      []*session                          // in dial order
	wake     chan struct{}                       // a session received an event
	last     map[core.ObjectID]core.ObjectUpdate // each live object's last accepted report
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

	snap    []core.ObjectID // q's commit snapshot, as the client keeps it
	durable []core.ObjectID // q's last commit the repository holds
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
	tg := &Target{
		t:    t,
		cfg:  cfg,
		creg: obs.NewRegistry(),
		qs:   map[core.QueryID]*session{},
		wake: make(chan struct{}, 1),
		last: map[core.ObjectID]core.ObjectUpdate{},
	}
	tg.listen()
	t.Cleanup(tg.close)
	for range feeds {
		tg.feeds = append(tg.feeds, tg.dial(0))
	}
	return tg
}

// listen starts a server with tg.cfg.
func (tg *Target) listen() {
	srv, err := server.Listen("127.0.0.1:0", tg.cfg)
	if err != nil {
		tg.t.Fatal(err)
	}
	tg.srv, tg.streamed = srv, tg.cfg.Metrics.Counter("server.updates.streamed")
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

// Restart closes the server, opens a new one on the same configuration
// and a registry of its own, re-feeds the objects, reconnects every
// session, and returns the recovery diff of each query that recovered
// by diff. A recovery of the wrong kind, or an update batch streamed
// during the restart, fails the test.
func (tg *Target) Restart() map[core.QueryID][]core.Update {
	tg.t.Helper()
	if err := tg.srv.Close(); err != nil {
		tg.t.Fatal(err)
	}
	for _, s := range tg.all {
		tg.await(s, client.EventDisconnected)
		s.mu.Lock()
		s.n = 0 // the new server counts from zero
		s.mu.Unlock()
	}
	tg.cfg.Metrics = obs.NewRegistry()
	tg.listen()
	addr := tg.srv.Addr().String()
	for _, s := range tg.feeds {
		if err := s.c.Reconnect(addr); err != nil {
			tg.t.Fatal(err)
		}
	}
	ids := make([]core.ObjectID, 0, len(tg.last))
	for id, u := range tg.last {
		if tg.cfg.RepositoryDir == "" || u.Kind != core.Stationary {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		tg.ReportObject(tg.last[id])
	}
	if out := tg.Step(0); len(out) > 0 {
		tg.t.Fatalf("overtcp: the re-fed objects streamed %v", out)
	}
	diffs := map[core.QueryID][]core.Update{}
	for _, s := range tg.all {
		if s.q == 0 {
			continue
		}
		_, live := s.c.Answer(s.q)
		if err := s.c.Reconnect(addr); err != nil {
			tg.t.Fatal(err)
		}
		if live {
			ev := tg.next(s)
			diff := slices.Equal(s.snap, s.durable)
			switch {
			case ev.Kind == client.EventRecovered && diff:
				diffs[s.q] = ev.Updates
			case ev.Kind == client.EventFullAnswer && !diff:
			default:
				tg.t.Fatalf("overtcp: query %d: event %+v after a restart, snapshot %v, durable commit %v", s.q, ev, s.snap, s.durable)
			}
			tg.committed(s)
		}
		// The stats round trip leaves room for no second recovery.
		if err := s.c.RequestStats(); err != nil {
			tg.t.Fatal(err)
		}
		tg.await(s, client.EventStats)
		s.mu.Lock()
		early := s.upds
		s.mu.Unlock()
		if len(early) > 0 {
			tg.t.Fatalf("overtcp: session of query %d received %v while reconnecting", s.q, early)
		}
	}
	return diffs
}

// committed records that s's query committed the answer its client
// holds, durably if the server keeps a repository.
func (tg *Target) committed(s *session) {
	s.snap, _ = s.c.Answer(s.q)
	if tg.cfg.RepositoryDir != "" {
		s.durable = s.snap
	}
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

// next returns s's next event other than updates.
func (tg *Target) next(s *session) client.Event {
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
	return ev
}

// await returns s's next event other than updates, and fails the test
// unless it is of the wanted kind.
func (tg *Target) await(s *session, want client.EventKind) client.Event {
	tg.t.Helper()
	ev := tg.next(s)
	if ev.Kind != want {
		tg.t.Fatalf("overtcp: session of query %d: event %+v, want kind %d (kind %d is a full-answer heal)", s.q, ev, want, client.EventFullAnswer)
	}
	return ev
}

// ReportObject queues u on its feed session.
func (tg *Target) ReportObject(u core.ObjectUpdate) {
	switch {
	case u.Remove:
		delete(tg.last, u.ID)
	case core.AcceptObject(&u, tg.cfg.Engine.MaxSpeed):
		tg.last[u.ID] = u
	}
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

// send writes s's queued reports in order. Each query report makes the
// client's answer its commit snapshot, and a removal erases the
// durable commit.
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
		if u.Remove {
			s.durable = nil
		}
	}
	if len(s.qrys) > 0 {
		s.snap, _ = s.c.Answer(s.q)
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
	tg.committed(s)
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
	diff := tg.await(s, client.EventRecovered).Updates
	tg.committed(s)
	return diff, true
}
