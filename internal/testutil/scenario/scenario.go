// Package scenario is the one differential driver for continuous query
// processors. A Source yields batches of reports — Gen draws them from
// a seed and a vocabulary of report shapes, a Script plays literal ones
// — and Run feeds each batch in lockstep to a reference core.Engine and
// to every target under test: processors, each wrapped in
// core.Protocol, and Targets that keep their Protocol out of reach, such
// as a server and its clients over TCP (package overtcp). After every
// step it checks the paper's invariant and the §3.3 protocol:
//
//   - each stream replays onto its client's views: no duplicate
//     positive, no negative for an absent member (except the retractions
//     of a query the batch removed or re-kinded, which the client has
//     dropped), and every view equals the target's Answer;
//   - the reference's and every processor's stream is the net diff of
//     the step: strictly increasing in (Query, Object), so no pair
//     appears twice, except in a query the batch removed or re-kinded;
//   - NumObjects, NumQueries and Answer agree with the reference for
//     every query ID the run has reported, and so do CommittedAnswer and
//     CommittedChecksum where the target has them, and the batch's
//     Commit and Recover calls; the reference's recovery diff, applied
//     to its committed answer, yields its answer;
//   - the reference passes CheckConsistency(true), whose answers are
//     the brute-force EvalFromScratch oracle's;
//   - where the configuration asks, the targets under test emit
//     bit-identical streams, and their work ledgers are equal and never
//     decrease.
//
// A batch marked Restart first reconnects every client: a target that
// can restart (a server) does, and every other target recovers each
// live query, as a reconnect does. Every recovery diff that the
// reference's Recover can be held to must equal it, and every state
// check above must hold again before the batch's reports.
//
// The package imports only core and geo, so any processor's in-package
// tests can use it.
package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"cqp/internal/core"
)

// Batch is one step's input: a restart if asked, reports sent in
// order, then a step at T, then the protocol calls.
type Batch struct {
	T float64
	// Restart reconnects every client before the batch's reports.
	Restart bool
	Objects []core.ObjectUpdate
	Queries []core.QueryUpdate
	// Commit and Recover name queries committed and recovered on every
	// processor after the step; their results must agree.
	Commit  []core.QueryID
	Recover []core.QueryID
	// Check, if set, runs after the step on every target with the
	// stream it emitted, before the protocol calls; a lockstep protocol
	// call made here must be made on every target alike.
	Check func(p Target, stream []core.Update) error
}

// Target is what the driver plays a batch to and checks. *core.Protocol
// is one; so is a server and its clients, which keep their Protocol on
// the server side of a socket.
type Target interface {
	ReportObject(core.ObjectUpdate)
	ReportQuery(core.QueryUpdate)
	Step(now float64) []core.Update
	Answer(core.QueryID) ([]core.ObjectID, bool)
	NumObjects() int
	NumQueries() int
	Commit(core.QueryID) bool
	Recover(core.QueryID) ([]core.Update, bool)
}

// restarter is a Target that can restart: Restart stops it and starts
// it again on what it made durable, then reconnects every client. It
// returns the recovery diff of each query that recovered by diff; a
// query healed with its whole answer is absent.
type restarter interface {
	Restart() map[core.QueryID][]core.Update
}

// committer is a Target that exposes its committed answers.
type committer interface {
	CommittedAnswer(core.QueryID) ([]core.ObjectID, bool)
	CommittedChecksum(core.QueryID) (uint64, bool)
}

// ledgered is a Target that exposes its work ledger.
type ledgered interface{ Stats() core.Stats }

// Source yields a run's batches.
type Source interface {
	// Options returns the engine options every processor of the run is
	// built with.
	Options() core.Options
	// Next returns the next batch, or false when the source is dry.
	Next() (Batch, bool)
}

// Config says what a run drives and what it checks beyond the
// always-on checks.
type Config struct {
	// Steps is the number of batches to run; 0 runs until the source is
	// dry.
	Steps int
	// Procs are the processors under test, built with the source's
	// options and fresh: Run wraps each in core.Protocol.
	Procs []core.Processor
	// Targets are further targets under test, fresh, driven after Procs
	// as they are.
	Targets []Target
	// SameStream requires every target under test to emit the same
	// stream as the first, update for update, at every step. A target of
	// Targets is held to that stream without the updates of the queries
	// the batch removed: a server drops those with their subscriptions.
	SameStream bool
	// Ledger requires the work ledgers of the targets under test that
	// have one to be equal after every step and never to decrease. A
	// target that restarted starts its ledger again, and is exempt from
	// then on.
	Ledger bool
	// Before runs before step's reports are sent, say to read a counter
	// the step will move.
	Before func(step int)
	// After runs after step's checks with every stream, the reference's
	// first, then the processors', then the targets'.
	After func(step int, streams [][]core.Update)
}

// Run drives src through a reference core.Engine, cfg.Procs and
// cfg.Targets, and fails t at the first check that does not hold.
func Run(t testing.TB, src Source, cfg Config) {
	t.Helper()
	if err := run(src, cfg); err != nil {
		t.Fatal(err)
	}
}

// driver is one run's state.
type driver struct {
	cfg       Config
	ref       *core.Engine
	ps        []Target // the reference's Protocol, then Procs', then Targets
	views     []map[core.QueryID]map[core.ObjectID]struct{}
	kinds     map[core.QueryID]core.QueryKind // registered queries, as a client sees them
	maxQ      core.QueryID                    // the highest query ID reported
	ledg      core.Stats                      // the ledger after the previous step
	restarted map[int]bool                    // targets that restarted, by index
}

func run(src Source, cfg Config) error {
	ref, err := core.NewEngine(src.Options())
	if err != nil {
		return err
	}
	d := &driver{cfg: cfg, ref: ref, kinds: map[core.QueryID]core.QueryKind{}, restarted: map[int]bool{}}
	for _, p := range append([]core.Processor{ref}, cfg.Procs...) {
		d.ps = append(d.ps, core.NewProtocol(p))
	}
	d.ps = append(d.ps, cfg.Targets...)
	for range d.ps {
		d.views = append(d.views, map[core.QueryID]map[core.ObjectID]struct{}{})
	}
	for step := 0; cfg.Steps == 0 || step < cfg.Steps; step++ {
		b, ok := src.Next()
		if !ok {
			break
		}
		if err := d.step(step, b); err != nil {
			return err
		}
	}
	return nil
}

// step runs one batch through every processor and checks the result.
func (d *driver) step(step int, b Batch) error {
	if d.cfg.Before != nil {
		d.cfg.Before(step)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("step %d (t=%v): %s", step, b.T, fmt.Sprintf(format, args...))
	}
	if b.Restart {
		if err := d.restart(); err != nil {
			return fail("restart: %v", err)
		}
	}
	reset := d.track(b.Queries)
	for _, p := range d.ps {
		for _, u := range b.Objects {
			p.ReportObject(u)
		}
		for _, u := range b.Queries {
			p.ReportQuery(u)
		}
	}
	streams := make([][]core.Update, len(d.ps))
	for i, p := range d.ps {
		streams[i] = p.Step(b.T)
	}

	for i, s := range streams {
		if err := d.replay(i, s, reset); err != nil {
			return fail("processor %d: %v", i, err)
		}
	}
	if err := d.ref.CheckConsistency(true); err != nil {
		return fail("reference: %v", err)
	}
	for i := range d.ps {
		if err := d.agree(i); err != nil {
			return fail("processor %d: %v", i, err)
		}
	}
	if d.cfg.SameStream {
		want := streams[1]
		for i := 2; i < len(streams); i++ {
			if i == 1+len(d.cfg.Procs) {
				want = slices.DeleteFunc(slices.Clone(want), func(u core.Update) bool {
					_, live := d.kinds[u.Query]
					return reset[u.Query] && !live
				})
			}
			if !slices.Equal(want, streams[i]) {
				return fail("streams diverge\nprocessor 1: %v\nprocessor %d: %v", want, i, streams[i])
			}
		}
	}
	if d.cfg.Ledger {
		if err := d.ledger(); err != nil {
			return fail("%v", err)
		}
	}
	if b.Check != nil {
		for i, p := range d.ps {
			if err := b.Check(p, streams[i]); err != nil {
				return fail("processor %d: %v", i, err)
			}
		}
	}
	if d.cfg.After != nil {
		d.cfg.After(step, streams)
	}
	for _, q := range b.Commit {
		want := d.ps[0].Commit(q)
		wsum, _ := d.ps[0].(committer).CommittedChecksum(q)
		for i, p := range d.ps[1:] {
			if got := p.Commit(q); got != want {
				return fail("processor %d: Commit(%d) = %v, reference %v", i+1, q, got, want)
			}
			if c, ok := p.(committer); ok {
				if sum, _ := c.CommittedChecksum(q); sum != wsum {
					return fail("processor %d: committed checksum of %d diverges after Commit", i+1, q)
				}
			}
		}
	}
	for _, q := range b.Recover {
		if err := d.recover(q, nil); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

// restart reconnects every client: each target that can restart does,
// and every other target recovers each live query. The state checks
// must then hold as after a step.
func (d *driver) restart() error {
	diffs := make([]map[core.QueryID][]core.Update, len(d.ps))
	for i, p := range d.ps {
		if r, ok := p.(restarter); ok {
			diffs[i] = r.Restart()
			d.restarted[i] = true
		}
	}
	live := make([]core.QueryID, 0, len(d.kinds))
	for q := range d.kinds {
		live = append(live, q)
	}
	slices.Sort(live)
	for _, q := range live {
		if err := d.recover(q, diffs); err != nil {
			return err
		}
	}
	for i := range d.ps {
		if err := d.agree(i); err != nil {
			return fmt.Errorf("processor %d: %v", i, err)
		}
	}
	return nil
}

// recover recovers q on the reference, checks its diff against its
// committed answer, and holds every other target's Recover(q) to it.
// A target with restart diffs is held to its diff of q instead, if it
// has one.
func (d *driver) recover(q core.QueryID, diffs []map[core.QueryID][]core.Update) error {
	committed, _ := d.ps[0].(committer).CommittedAnswer(q)
	want, wok := d.ps[0].Recover(q)
	if err := recovers(d.ps[0], q, committed, want); err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	for i := 1; i < len(d.ps); i++ {
		var got []core.Update
		ok := true
		if diffs != nil && d.restarted[i] {
			if got, ok = diffs[i][q]; !ok {
				continue // healed with the whole answer
			}
		} else {
			got, ok = d.ps[i].Recover(q)
		}
		if ok != wok || !slices.Equal(got, want) {
			return fmt.Errorf("processor %d: Recover(%d) = %v (%v), reference %v (%v)", i, q, got, ok, want, wok)
		}
	}
	return nil
}

// track applies a batch's query reports to the client's view of the
// query table and returns the queries the batch removed or re-kinded:
// their clients drop their views, and fresh ones start empty.
func (d *driver) track(us []core.QueryUpdate) map[core.QueryID]bool {
	reset := map[core.QueryID]bool{}
	for _, u := range us {
		d.maxQ = max(d.maxQ, u.ID)
		k, live := d.kinds[u.ID]
		switch {
		case u.Remove:
			delete(d.kinds, u.ID)
			reset[u.ID] = true
		case !u.Kind.Valid():
		case !live || k != u.Kind:
			d.kinds[u.ID] = u.Kind
			reset[u.ID] = true
		}
	}
	for q := range reset {
		for _, v := range d.views {
			delete(v, q)
			if _, live := d.kinds[q]; live {
				v[q] = map[core.ObjectID]struct{}{}
			}
		}
	}
	return reset
}

// replay applies processor i's stream to its client views. The stream
// of the reference or of a processor of Procs must be in strictly
// increasing (Query, Object) order but in a query the batch reset.
// Targets are exempt: a ticker-driven server may evaluate several times
// in one driver step, and SameStream holds its stream to a processor's.
func (d *driver) replay(i int, stream []core.Update, reset map[core.QueryID]bool) error {
	ordered := i <= len(d.cfg.Procs)
	for j, u := range stream {
		if ordered && j > 0 {
			p := stream[j-1]
			if c := cmp.Or(cmp.Compare(p.Query, u.Query), cmp.Compare(p.Object, u.Object)); c > 0 || c == 0 && !reset[u.Query] {
				return fmt.Errorf("%v follows %v: the stream is not the step's net diff in (Query, Object) order", u, p)
			}
		}
		v, ok := d.views[i][u.Query]
		if !ok {
			if u.Positive || !reset[u.Query] {
				return fmt.Errorf("%v for a query the client does not hold", u)
			}
			continue
		}
		_, in := v[u.Object]
		switch {
		case u.Positive && in:
			return fmt.Errorf("duplicate positive %v", u)
		case u.Positive:
			v[u.Object] = struct{}{}
		case in:
			delete(v, u.Object)
		case !reset[u.Query]:
			return fmt.Errorf("negative %v for an absent member", u)
		}
	}
	return nil
}

// agree compares processor i's state with the reference's, and its
// replayed views with its answers.
func (d *driver) agree(i int) error {
	ref, p := d.ps[0], d.ps[i]
	if a, b := ref.NumObjects(), p.NumObjects(); a != b {
		return fmt.Errorf("NumObjects %d, reference %d", b, a)
	}
	if a, b := ref.NumQueries(), p.NumQueries(); a != b {
		return fmt.Errorf("NumQueries %d, reference %d", b, a)
	}
	for q := core.QueryID(1); q <= d.maxQ; q++ {
		got, ok := p.Answer(q)
		if i > 0 {
			if want, wok := ref.Answer(q); ok != wok || !slices.Equal(got, want) {
				return fmt.Errorf("query %d: answer %v (%v), reference %v (%v)", q, got, ok, want, wok)
			}
		}
		v := d.views[i][q]
		held := 0
		for _, o := range got {
			if _, in := v[o]; in {
				held++
			}
		}
		if held != len(v) || held != len(got) {
			return fmt.Errorf("query %d: replayed view %v, answer %v", q, v, got)
		}
		c, ok := p.(committer)
		if i == 0 || !ok {
			continue
		}
		rc := ref.(committer)
		want, wok := rc.CommittedAnswer(q)
		if got, ok := c.CommittedAnswer(q); ok != wok || !slices.Equal(got, want) {
			return fmt.Errorf("query %d: committed answer %v (%v), reference %v (%v)", q, got, ok, want, wok)
		}
		wsum, _ := rc.CommittedChecksum(q)
		if sum, _ := c.CommittedChecksum(q); sum != wsum {
			return fmt.Errorf("query %d: committed checksum diverges", q)
		}
	}
	return nil
}

// ledger checks that the targets under test keep equal ledgers that
// never decrease.
func (d *driver) ledger() error {
	got := d.ps[1].(ledgered).Stats()
	for i, p := range d.ps[2:] {
		if l, ok := p.(ledgered); ok && !d.restarted[i+2] {
			if s := l.Stats(); s != got {
				return fmt.Errorf("ledgers diverge\nprocessor 1: %+v\nprocessor %d: %+v", got, i+2, s)
			}
		}
	}
	prev, cur := d.ledg.Counters(), got.Counters()
	for i := range prev {
		if *cur[i] < *prev[i] {
			return fmt.Errorf("ledger went backwards\nbefore: %+v\nafter:  %+v", d.ledg, got)
		}
	}
	d.ledg = got
	return nil
}

// recovers checks that diff, applied to the committed answer, yields
// p's answer of q: each negative retracts a member, each positive adds
// an absent object.
func recovers(p Target, q core.QueryID, committed []core.ObjectID, diff []core.Update) error {
	view := map[core.ObjectID]struct{}{}
	for _, o := range committed {
		view[o] = struct{}{}
	}
	for _, u := range diff {
		if _, in := view[u.Object]; in == u.Positive {
			return fmt.Errorf("Recover(%d): %v does not apply to the committed answer %v", q, u, committed)
		}
		if u.Positive {
			view[u.Object] = struct{}{}
		} else {
			delete(view, u.Object)
		}
	}
	want, _ := p.Answer(q)
	held := 0
	for _, o := range want {
		if _, in := view[o]; in {
			held++
		}
	}
	if held != len(view) || held != len(want) {
		return fmt.Errorf("Recover(%d): the committed answer %v with the diff %v is not the answer %v", q, committed, diff, want)
	}
	return nil
}
